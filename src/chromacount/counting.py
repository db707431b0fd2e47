"""Exact counting of proper colorings (two independent algorithms), graph
homomorphisms and independent sets, plus the independence number and the
deterministic greedy maximal matching.

Colorings are counted by one frontier pass over the vertices (the default),
or by backtracking, the independent oracle: a proper q-coloring is a
homomorphism into K_q, so the oracle is the homomorphism backtracker with
K_q as target.  The frontier pass is a dynamic program over colour-class
partitions of the frontier with integer weights, run at one q.  The
chromatic polynomial is the same pass at one large q, whose value holds
every coefficient as a base-q digit.  The frontier pass and backtracking
share only the vertex order, so `count --method both` compares independent
algorithms.  Independent sets are counted by a frontier pass whose state
is the vertex mask of the unplaced vertices next to the set, with
homomorphisms into `h_ind` as the oracle.

All counts are exact Python integers; nothing here rounds.
"""
from __future__ import annotations

from typing import Sequence

from .errors import CapExceededError, InvalidParameterError
from .graphs import Graph, TargetGraph, complete_target, components, vertices_of

DEFAULT_POLY_CAP = 14
# Live states allowed in one step of either frontier pass; a step holds two
# tables.  When CapExceededError was raised (Python 3.11), over-cap colouring
# inputs (random cubic graphs, n = 40 at q = 4 and n = 60 at q = 5) had
# peaked at 300-460 MB of RSS, and over-cap independent-set inputs (random
# 3-, 4- and 6-regular graphs, n = 100) at 230-300 MB.
DEFAULT_STATE_CAP = 1_000_000


def _bfs_order(g: Graph) -> tuple[list[int], list[int]]:
    # the vertex order of every pass and each vertex's position in it: BFS
    # from vertex 0, restarting at the smallest unvisited vertex, each
    # vertex's new neighbours queued in increasing order
    order: list[int] = []
    unseen = (1 << g.n) - 1
    while unseen:
        start = unseen & -unseen
        unseen ^= start
        queue = [start.bit_length() - 1]
        for u in queue:  # the loop reaches the vertices queued on the way
            fresh = g.rows[u] & unseen
            unseen ^= fresh
            queue += vertices_of(fresh)
        order += queue
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    return order, pos


def count_colorings(g: Graph, q: int, method: str = "frontier") -> int:
    """Number of functions V -> {1..q} with adjacent vertices mapped to
    different values.  `method` selects the frontier pass, homomorphism
    backtracking into K_q (one leaf per coloring) or the chromatic polynomial
    evaluated at q (capped at n <= DEFAULT_POLY_CAP); all are exact and must
    agree."""
    if q < 0:
        raise InvalidParameterError("q must be non-negative")
    if method == "frontier":
        return _count_frontier(g, q)
    if method == "backtrack":
        # K_q needs q >= 1; with no colours only the empty graph has a coloring
        return count_homomorphisms(g, complete_target(q)) if q else int(g.n == 0)
    if method == "polynomial":
        return evaluate_polynomial(chromatic_polynomial(g), q)
    raise InvalidParameterError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# The frontier pass
# ---------------------------------------------------------------------------

def _count_frontier(g: Graph, q: int) -> int:
    """Proper q-colorings by one frontier pass (Sekine-Imai-Tani) over the
    vertices in BFS order.

    The frontier is the placed vertices that still have an unplaced
    neighbour.  A state is the partition of the frontier into colour classes,
    labelled by first appearance, and carries the number of colourings of the
    placed vertices that induce it.  A new vertex joins a frontier class
    holding none of its neighbours, or opens a new class in one of the q - b
    colours that the b frontier classes leave free; with b = q there is none,
    so no state has more than q classes.  More than DEFAULT_STATE_CAP live
    states raise CapExceededError."""
    cap = DEFAULT_STATE_CAP
    n = g.n
    order, pos = _bfs_order(g)
    # a vertex stays on the frontier until its last neighbour is placed
    leaves = [max((pos[w] for w in g.neighbors(v)), default=-1) for v in range(n)]
    frontier: list[int] = []
    table: dict[tuple[int, ...], int] = {(): 1}
    for i, v in enumerate(order):
        adj = [j for j, u in enumerate(frontier) if (g.rows[v] >> u) & 1]
        stay = [j for j, u in enumerate(frontier) if leaves[u] > i]
        joins = leaves[v] > i
        frontier = [frontier[j] for j in stay] + [v] * joins
        nxt: dict[tuple[int, ...], int] = {}
        for state, w in table.items():
            b = max(state) + 1 if state else 0
            banned = {state[j] for j in adj}
            # project onto the frontier vertices that stay, relabelled by
            # first appearance; the new vertex, if it stays, comes last
            seen: dict[int, int] = {}
            base = tuple(seen.setdefault(state[j], len(seen)) for j in stay)
            labels = [seen.get(c, len(seen)) for c in range(b + 1)]
            # colour c < b joins class c; c = b opens a class in q - b ways
            for c in range(b + 1 if b < q else b):
                if c not in banned:
                    key = base + (labels[c],) if joins else base
                    nxt[key] = nxt.get(key, 0) + (w if c < b else w * (q - b))
            if len(nxt) > cap:
                raise CapExceededError(f"frontier pass exceeds state cap {cap} at vertex {i + 1} of {n}")
        table = nxt
    return sum(table.values())


def chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Coefficients of the chromatic polynomial in the monomial basis:
    coeffs[k] is the coefficient of q**k.

    One frontier pass at q = B = 2**(m + 2) for m edges, read off as balanced
    base-B digits (Kronecker substitution).  By Whitney's broken-circuit
    theorem the coefficient of q**(n - i) is at most C(m, i) < B/2 in
    absolute value, so each digit is one coefficient."""
    if g.n > DEFAULT_POLY_CAP:
        raise CapExceededError(f"n={g.n} exceeds polynomial cap {DEFAULT_POLY_CAP}")
    shift = g.edge_count() + 2
    base = 1 << shift
    value = _count_frontier(g, base)
    coeffs = []
    for _ in range(g.n + 1):
        digit = value & (base - 1)
        if digit >= base >> 1:
            digit -= base
        coeffs.append(digit)
        value = (value - digit) >> shift
    if value:
        raise ArithmeticError(f"chromatic polynomial has a digit beyond degree {g.n}")
    return tuple(coeffs)


def evaluate_polynomial(coeffs: Sequence[int], q: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


# ---------------------------------------------------------------------------
# Homomorphisms and independent sets
# ---------------------------------------------------------------------------

def count_homomorphisms(g: Graph, h: TargetGraph) -> int:
    """Number of maps V(g) -> V(h) sending edges to edges (loops in h allow
    adjacent preimages to coincide)."""
    if g.n == 0:
        return 1
    if h.k == 0:
        return 0
    order, pos = _bfs_order(g)
    earlier: list[list[int]] = []
    for i, v in enumerate(order):
        earlier.append([pos[w] for w in g.neighbors(v) if pos[w] < i])
    full = (1 << h.k) - 1
    image = [0] * g.n

    def rec(i: int) -> int:
        if i == g.n:
            return 1
        cand = full
        for p in earlier[i]:
            cand &= h.rows[image[p]]
        total = 0
        while cand:
            t = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            image[i] = t
            total += rec(i + 1)
        return total

    return rec(0)


def count_independent_sets(g: Graph) -> int:
    """Number of independent sets, the empty set included, by one frontier
    pass over the vertices in BFS order.  A state is the vertex mask of the
    unplaced vertices with a neighbour in the set; it depends only on
    which frontier vertices are in the set, so no step holds more states
    than there are such subsets, and often far fewer (K_{d,d} holds 3).  A
    new vertex is left out, or joins when the state does not forbid it.
    More than DEFAULT_STATE_CAP live states raise CapExceededError."""
    cap = DEFAULT_STATE_CAP
    n = g.n
    order, _ = _bfs_order(g)
    unplaced = (1 << n) - 1
    table = {0: 1}
    for i, v in enumerate(order):
        bit = 1 << v
        unplaced &= ~bit
        rows_v = g.rows[v] & unplaced
        nxt: dict[int, int] = {}
        # each state yields at most two keys
        near_cap = 2 * len(table) > cap
        for state, w in table.items():
            key = state & ~bit
            nxt[key] = nxt.get(key, 0) + w
            if not state & bit:
                key = state | rows_v
                nxt[key] = nxt.get(key, 0) + w
            if near_cap and len(nxt) > cap:
                raise CapExceededError(f"frontier pass exceeds state cap {cap} at vertex {i + 1} of {n}")
        table = nxt
    return sum(table.values())


def _clique_cover_bound(rows: Sequence[int], mask: int) -> int:
    # a partition into b cliques bounds any independent set by b
    bound = 0
    rem = mask
    while rem:
        v = (rem & -rem).bit_length() - 1
        clique = 1 << v
        cand = rem & rows[v]
        while cand:
            u = (cand & -cand).bit_length() - 1
            clique |= 1 << u
            cand &= rows[u]
        rem &= ~clique
        bound += 1
    return bound


def _alpha_mask(rows: Sequence[int], mask: int) -> int:
    """Exact independence number of the induced subgraph on `mask`."""
    size = 0
    # reductions: isolated and degree-1 vertices always enter some maximum set
    changed = True
    while changed and mask:
        changed = False
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nb = rows[v] & mask
            dv = nb.bit_count()
            if dv == 0:
                size += 1
                mask &= ~(1 << v)
                changed = True
                break
            if dv == 1:
                size += 1
                mask &= ~(nb | (1 << v))
                changed = True
                break
    if mask == 0:
        return size
    comps = components(rows, mask)
    if len(comps) > 1:
        return size + sum(_alpha_mask(rows, c) for c in comps)
    # connected, minimum degree >= 2
    best_v = -1
    best_d = -1
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        dv = (rows[v] & mask).bit_count()
        if dv > best_d:
            best_d = dv
            best_v = v
    if best_d <= 2:
        # a connected graph with all degrees exactly 2 is a cycle
        return size + mask.bit_count() // 2
    v = best_v
    best = 1 + _alpha_mask(rows, mask & ~(rows[v] | (1 << v)))
    rest = mask & ~(1 << v)
    if _clique_cover_bound(rows, rest) > best:
        best = max(best, _alpha_mask(rows, rest))
    return size + best


def independence_number(g: Graph) -> int:
    """Exact independence number by branch and bound over bit masks."""
    if g.n == 0:
        return 0
    return _alpha_mask(g.rows, (1 << g.n) - 1)


def maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """The lexicographically first maximum independent set."""
    alpha = independence_number(g)
    chosen: list[int] = []
    avail = (1 << g.n) - 1
    for v in range(g.n):
        if not (avail >> v) & 1:
            continue
        # vertices below v are already settled, so avail only holds v and above
        after = avail & ~(g.rows[v] | (1 << v))
        if len(chosen) + 1 + _alpha_mask(g.rows, after) == alpha:
            chosen.append(v)
            avail = after
        else:
            avail &= ~(1 << v)
    return tuple(chosen)


def greedy_maximal_matching(g: Graph) -> list[tuple[int, int]]:
    """Scan edges in lexicographic order, taking every edge whose endpoints
    are both unmatched; deterministic and maximal."""
    matched = 0
    out = []
    for u, v in g.edges():
        if not ((matched >> u) & 1 or (matched >> v) & 1):
            out.append((u, v))
            matched |= (1 << u) | (1 << v)
    return out
