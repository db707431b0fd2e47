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
homomorphisms into `h_ind` as the oracle.  The same pass in max-plus form,
where a state's weight is the largest set that induces it, gives the
independence number; with weights that prefer lower vertices, it gives the
lexicographically first maximum independent set.  Every frontier pass runs
through one driver, which owns the vertex order, the mask of unplaced
vertices and the state cap.

All counts are exact Python integers; nothing here rounds.
"""
from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence

from .errors import CapExceededError, InvalidParameterError
from .graphs import Graph, TargetGraph, bfs, complete_target, vertices_of

# Live states allowed in one step of any frontier pass; a step holds two
# tables.  When CapExceededError was raised (Python 3.11), over-cap colouring
# inputs (random cubic graphs, n = 40 at q = 4 and n = 60 at q = 5) had
# peaked at 300-460 MB of RSS, and over-cap independent-set inputs (random
# 3-, 4- and 6-regular graphs, n = 100) at 230-300 MB.  The hom verdict's
# reference tables (verdicts._common_sum) hold as many, a key counting one
# state more per 64 bytes; random targets G(k, 0.3) at k = 1,000 and 1,500
# reached the cap at 116-130 MB.
DEFAULT_STATE_CAP = 1_000_000

# Search nodes (partial maps tried) allowed in one homomorphism backtracking,
# where there is one leaf per homomorphism.  On a 2-core host (Python 3.11.7)
# a random cubic graph with n = 20 at q = 4 reaches the cap after 31 s at
# 17 MB of RSS; the cubic families with n <= 12 at q <= 5 take at most 6*10^5.
# Each walk of the hom verdict's references (verdicts._common_sum) charges
# its (neighbourhood, candidate) pairs to the same cap.
BACKTRACK_NODE_CAP = 100_000_000


def count_colorings(g: Graph, q: int, method: str = "frontier") -> int:
    """Number of functions V -> {1..q} with adjacent vertices mapped to
    different values.  `method` selects the frontier pass, homomorphism
    backtracking into K_q (one leaf per coloring) or the chromatic polynomial
    evaluated at q; all are exact and must agree."""
    if q < 0:
        raise InvalidParameterError("q must be non-negative")
    if method == "frontier":
        return _count_frontier(g, q)
    if method == "backtrack":
        # K_q needs q >= 1; with no colours only the empty graph has a coloring
        if not (q and g.n):
            return int(g.n == 0)
        # the first vertex charges q nodes and, below each, the second (at
        # most one earlier neighbour in BFS order) at least q - 1: with n >= 2
        # the search charges at least q^2, and past the cap K_q is not built
        check_backtrack_target(q * q if g.n >= 2 else q)
        return count_homomorphisms(g, complete_target(q))
    if method == "polynomial":
        return evaluate_polynomial(chromatic_polynomial(g), q)
    raise InvalidParameterError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# The frontier pass
# ---------------------------------------------------------------------------

def _frontier_pass(g: Graph, start: Hashable, weight: int, step: Callable[[dict, int, int, int], dict], cap: int) -> dict:
    """The table of a frontier pass once every vertex is placed.

    The table maps each state to its weight and starts as {start: weight}.
    The vertices are placed in BFS order, and step(table, v, unplaced, cap)
    returns the table after v is placed, where `unplaced` is the mask of the
    vertices still to come.  A step stops filling its table once that holds
    more than cap states, and the pass then raises CapExceededError."""
    unplaced = (1 << g.n) - 1
    table = {start: weight}
    for i, v in enumerate(bfs(g.rows, unplaced)[0], 1):
        unplaced ^= 1 << v
        table = step(table, v, unplaced, cap)
        if len(table) > cap:
            raise CapExceededError(f"frontier pass exceeds state cap {cap} at vertex {i} of {g.n}")
    return table


def _count_frontier(g: Graph, q: int) -> int:
    """Proper q-colorings by one frontier pass (Sekine-Imai-Tani).

    The frontier is the placed vertices that still have an unplaced
    neighbour.  A state is the partition of the frontier into colour classes,
    labelled by first appearance, and carries the number of colourings of the
    placed vertices that induce it.  A new vertex joins a frontier class
    holding none of its neighbours, or opens a new class in one of the q - b
    colours that the b frontier classes leave free; with b = q there is none,
    so no state has more than q classes.  More than DEFAULT_STATE_CAP live
    states raise CapExceededError.  A state's weight, a number of colourings
    of the placed vertices, grows with the bit length of q, so above 64 bits
    the cap shrinks in proportion; this bounds the memory of the chromatic
    polynomial's pass at q = 2**(m + 2)."""
    rows = g.rows
    frontier: list[int] = []

    def step(table: dict[tuple[int, ...], int], v: int, unplaced: int, cap: int) -> dict[tuple[int, ...], int]:
        nonlocal frontier
        adj = [j for j, u in enumerate(frontier) if (rows[v] >> u) & 1]
        # a vertex stays on the frontier while it has an unplaced neighbour
        stay = [j for j, u in enumerate(frontier) if rows[u] & unplaced]
        joins = bool(rows[v] & unplaced)
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
                break
        return nxt

    cap = DEFAULT_STATE_CAP * 64 // max(64, q.bit_length())
    return sum(_frontier_pass(g, (), 1, step, cap).values())


def chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Coefficients of the chromatic polynomial in the monomial basis:
    coeffs[k] is the coefficient of q**k.

    One frontier pass at q = B = 2**(m + 2) for m edges, read off as balanced
    base-B digits (Kronecker substitution).  By Whitney's broken-circuit
    theorem the coefficient of q**(n - i) is at most C(m, i) < B/2 in
    absolute value, so each digit is one coefficient.  The pass's state cap,
    scaled down for m > 61, bounds the work and the memory at any n."""
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

def _node_cap_error() -> CapExceededError:
    return CapExceededError(f"homomorphism backtracking exceeds search-node cap {BACKTRACK_NODE_CAP}")


def check_backtrack_target(k: int) -> None:
    """Refuse, before its target is built, a search bound to charge k nodes,
    over BACKTRACK_NODE_CAP: a k-vertex target charges k at the first vertex."""
    if k > BACKTRACK_NODE_CAP:
        raise _node_cap_error()


def count_homomorphisms(g: Graph, h: TargetGraph) -> int:
    """Number of maps V(g) -> V(h) sending edges to edges (loops in h allow
    adjacent preimages to coincide), by backtracking with one leaf per map.
    More than BACKTRACK_NODE_CAP search nodes raise CapExceededError."""
    # the vertices in BFS order over all of g, as in every frontier pass,
    # each with its neighbours placed before it
    steps, placed = [], 0
    for v in bfs(g.rows, (1 << g.n) - 1)[0]:
        steps.append((v, vertices_of(g.rows[v] & placed)))
        placed |= 1 << v
    full = (1 << h.k) - 1
    image = [0] * g.n
    budget = BACKTRACK_NODE_CAP

    def rec(i: int) -> int:
        nonlocal budget
        if i == g.n:
            return 1
        v, earlier = steps[i]
        cand = full
        for w in earlier:
            cand &= h.rows[image[w]]
        # the children are charged here, so a leaf costs no update
        budget -= cand.bit_count()
        if budget < 0:
            raise _node_cap_error()
        total = 0
        while cand:
            t = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            image[v] = t
            total += rec(i + 1)
        return total

    return rec(0)


def _indset_pass(g: Graph, gains: Sequence[int] | None) -> int:
    """The independent-set pass: the number of independent sets, or with
    `gains`, the largest total gain of one, where vertex v gains gains[v].

    A state is the vertex mask of the unplaced vertices with a neighbour in
    the set; it depends only on which frontier vertices are in the set, so
    no step holds more states than there are such subsets, and often far
    fewer (K_{d,d} holds 3).  A new vertex is left out, or joins when the
    state does not forbid it.  A state's weight is the number of sets that
    induce it, or in max-plus form the largest gain of one; once every
    vertex is placed, the one state left is 0.  More than DEFAULT_STATE_CAP
    live states raise CapExceededError."""
    rows = g.rows

    def step(table: dict[int, int], v: int, unplaced: int, cap: int) -> dict[int, int]:
        bit = 1 << v
        rows_v = rows[v] & unplaced
        nxt: dict[int, int] = {}
        # each state yields at most two keys
        near_cap = 2 * len(table) > cap
        if gains is None:
            for state, w in table.items():
                key = state & ~bit
                nxt[key] = nxt.get(key, 0) + w
                if not state & bit:
                    key = state | rows_v
                    nxt[key] = nxt.get(key, 0) + w
                if near_cap and len(nxt) > cap:
                    break
        else:
            gain = gains[v]
            for state, w in table.items():
                key = state & ~bit
                if nxt.get(key, -1) < w:
                    nxt[key] = w
                if not state & bit:
                    key = state | rows_v
                    w += gain
                    if nxt.get(key, -1) < w:
                        nxt[key] = w
                if near_cap and len(nxt) > cap:
                    break
        return nxt

    return _frontier_pass(g, 0, 1 if gains is None else 0, step, DEFAULT_STATE_CAP)[0]


def count_independent_sets(g: Graph) -> int:
    """Number of independent sets, the empty set included."""
    return _indset_pass(g, None)


def independence_number(g: Graph) -> int:
    """Exact independence number: the independent-set pass in max-plus form,
    each vertex gaining 1."""
    return _indset_pass(g, [1] * g.n)


def maximum_independent_set(g: Graph) -> tuple[int, ...]:
    """The lexicographically first maximum independent set, by one max-plus
    pass in which vertex v gains 2**n + 2**(n - 1 - v).  The high part of a
    gain counts the vertices.  Of two sets of one size, the lexicographically
    first holds the least vertex of their symmetric difference, so the low
    part is larger for it."""
    n = g.n
    best = _indset_pass(g, [(1 << n) | (1 << (n - 1 - v)) for v in range(n)])
    return tuple(v for v in range(n) if (best >> (n - 1 - v)) & 1)


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
