"""Graph representation, standard constructors, graph6 serialization, and
exhaustive enumeration of small regular graphs up to isomorphism.

Vertices are 0-indexed integers.  Every vertex set crossing this API is a bit
mask (``int``) with bit ``v`` standing for vertex ``v``, the same convention
used for the adjacency rows themselves.
"""
from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

from .errors import (
    CapExceededError,
    Graph6ParseError,
    InvalidParameterError,
    UnsupportedSizeError,
)

DEFAULT_ENUM_CAP = 12
ENUM_CAP_ENV = "CHROMA_CAP_N"


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bit mask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    """Unpack a bit mask into a sorted list of vertex indices."""
    if mask < 0:
        raise InvalidParameterError(f"vertex mask must be non-negative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_rows(size: int, rows: Sequence[int], name: str, loops: bool) -> None:
    """The checks of Graph and TargetGraph, in this order: the vertex count,
    one row per vertex (`name` is the count's field), then per vertex the
    range of its bits and, unless `loops`, its loop, then symmetry."""
    if size < 0:
        raise InvalidParameterError("vertex count must be non-negative")
    if len(rows) != size:
        raise InvalidParameterError(f"adjacency row count must equal {name}")
    full = (1 << size) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise InvalidParameterError(f"adjacency bits of vertex {v} out of range")
        if not loops and (row >> v) & 1:
            raise InvalidParameterError(f"loop at vertex {v} not allowed")
    # every set bit (v, u) needs its mirror (u, v); only on failure are the
    # pairs scanned in order, to name the first asymmetric one
    for v, row in enumerate(rows):
        bit = 1 << v
        while row:
            low = row & -row
            if not rows[low.bit_length() - 1] & bit:
                a, b = next((a, b) for a in range(size) for b in range(a + 1, size) if ((rows[a] >> b) & 1) != ((rows[b] >> a) & 1))
                raise InvalidParameterError(f"adjacency not symmetric at ({a},{b})")
            row ^= low


class _Rows:
    """What Graph and TargetGraph share: a vertex count and one adjacency
    bit mask per vertex, built only through the checks of __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, which would skip the checks of __new__
        return cls(*fields)

    def __reduce__(self):
        # pickle at every protocol through the constructor, so the checks run
        return type(self), tuple(self)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)


class Graph(_Rows, namedtuple("Graph", "n rows")):
    """Simple undirected loopless graph: vertex count plus one adjacency
    bit mask per vertex.  Immutable and hashable; safe to share."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]):
        _check_rows(n, rows, "n", loops=False)
        return super().__new__(cls, n, rows)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return vertices_of(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v in lexicographic order."""
        return [(u, v) for u, row in enumerate(self.rows) for v in vertices_of(row >> (u + 1) << (u + 1))]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


class TargetGraph(_Rows, namedtuple("TargetGraph", "k rows")):
    """Homomorphism target: symmetric adjacency where diagonal bits (loops)
    are permitted.  No multiple edges by construction."""

    __slots__ = ()

    def __new__(cls, k: int, rows: tuple[int, ...]):
        _check_rows(k, rows, "k", loops=True)
        return super().__new__(cls, k, rows)

    def has_loop(self, v: int) -> bool:
        return bool((self.rows[v] >> v) & 1)


def _edge_rows(size: int, edges: Iterable[tuple[int, int]], name: str, loops: bool) -> tuple[int, ...]:
    # the rows of from_edges and target_from_edges; errors call the size `name`
    if size < 1:
        raise InvalidParameterError(f"{name} must be at least 1")
    rows = [0] * size
    for u, v in edges:
        if not (0 <= u < size and 0 <= v < size):
            raise InvalidParameterError(f"edge ({u},{v}) out of range")
        if u == v and not loops:
            raise InvalidParameterError(f"loop at {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on n vertices from an edge list."""
    return Graph(n, _edge_rows(n, edges, "n", loops=False))


def target_from_edges(k: int, edges: Iterable[tuple[int, int]]) -> TargetGraph:
    """Build a TargetGraph; an edge (v, v) is a loop."""
    return TargetGraph(k, _edge_rows(k, edges, "k", loops=True))


def complete(k: int) -> Graph:
    """Complete graph on k vertices."""
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    full = (1 << k) - 1
    return Graph(k, tuple(full & ~(1 << v) for v in range(k)))


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph with sides {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise InvalidParameterError("both side sizes must be at least 1")
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) & ~left
    rows = [right] * a + [left] * b
    return Graph(a + b, tuple(rows))


def cycle(n: int) -> Graph:
    """Cycle on n vertices; n >= 3 (smaller n cannot form a simple cycle)."""
    if n < 3:
        raise InvalidParameterError("cycle needs at least 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(g.n + h.n, tuple(rows))


def disjoint_copies(base: Graph, t: int) -> Graph:
    """Disjoint union of t vertex-disjoint copies of base."""
    if t < 1:
        raise InvalidParameterError("copy count must be at least 1")
    out = base
    for _ in range(t - 1):
        out = disjoint_union(out, base)
    return out


def h_ind() -> TargetGraph:
    """Two adjacent vertices with a loop at vertex 1 only; homomorphisms
    into it are in bijection with independent sets (preimage of vertex 0)."""
    return TargetGraph(2, (0b10, 0b11))


def complete_target(q: int) -> TargetGraph:
    """K_q as a homomorphism target (no loops)."""
    if q < 1:
        raise InvalidParameterError("q must be at least 1")
    full = (1 << q) - 1
    return TargetGraph(q, tuple(full & ~(1 << v) for v in range(q)))


def looped_vertex() -> TargetGraph:
    """Single vertex with a loop."""
    return TargetGraph(1, (1,))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation: new vertex i is old vertex perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise InvalidParameterError("perm must be a permutation of 0..n-1")
    inv = [0] * g.n
    for new, old in enumerate(perm):
        inv[old] = new
    return Graph(g.n, tuple(mask_of(inv[v] for v in vertices_of(g.rows[old])) for old in perm))


Classification = namedtuple("Classification", [
    "n",
    "degree",  # common degree if regular, else None
    "bipartite",
    "components",
])


def regular_degree(g: Graph) -> int | None:
    """The common degree of g's vertices, or None if they differ or g has
    no vertex."""
    degrees = {row.bit_count() for row in g.rows}
    return degrees.pop() if len(degrees) == 1 else None


def classify(g: Graph) -> Classification:
    """Regularity, bipartiteness and component count.  G is bipartite iff
    its bipartite double cover, whose vertex v + n mirrors v, has twice as
    many components as G."""
    comps = len(components(g.rows, (1 << g.n) - 1))
    cover = [r << g.n for r in g.rows] + list(g.rows)
    bipartite = len(components(cover, (1 << 2 * g.n) - 1)) == 2 * comps
    return Classification(g.n, regular_degree(g), bipartite, comps)


def bfs(rows: Sequence[int], mask: int) -> tuple[list[int], list[int]]:
    """Breadth-first search of the subgraph induced on `mask` (adjacency rows
    as bit masks): the vertices in queue order, and the vertex masks of the
    connected components, ordered by least vertex.  Each component's search
    starts at the least unseen vertex and queues each vertex's new
    neighbours in increasing order."""
    order: list[int] = []
    comps = []
    unseen = mask
    while unseen:
        before = unseen
        start = unseen & -unseen
        unseen ^= start
        queue = [start.bit_length() - 1]
        for u in queue:  # the loop reaches the vertices queued on the way
            fresh = rows[u] & unseen
            unseen ^= fresh
            queue += vertices_of(fresh)
        order += queue
        comps.append(before ^ unseen)
    return order, comps


def components(rows: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph induced on
    `mask` (adjacency rows as bit masks), ordered by least vertex."""
    return bfs(rows, mask)[1]


def induced_subgraph(g: Graph, s: int) -> Graph:
    """Induced subgraph on the vertex mask s, relabeled 0..|s|-1 preserving
    order.  The empty mask yields the 0-vertex graph (internal use only)."""
    if s & ~((1 << g.n) - 1):
        raise InvalidParameterError("vertex mask out of range")
    verts = vertices_of(s)
    index = {v: i for i, v in enumerate(verts)}
    rows = tuple(mask_of(index[w] for w in vertices_of(g.rows[v] & s)) for v in verts)
    return Graph(len(verts), rows)


# ---------------------------------------------------------------------------
# graph6 serialization (single size byte, 1 <= n <= 62)
# ---------------------------------------------------------------------------

# Bit p of the graph6 bit stream is bit p of one int, `acc`: column j of the
# upper triangle is then rows[j] & ((1 << j) - 1) at bit j(j-1)/2.  A record
# byte holds six stream bits, the first most significant, so a 6-bit group of
# `acc` is its byte's bits reversed, and `acc` in binary the body's reversed.
_GROUP_CHAR = [chr(int(f"{v:06b}"[::-1], 2) + 63) for v in range(64)]
_BYTE_BITS = {b: f"{b - 63:06b}"[::-1] for b in range(63, 127)}
_BYTES_IN_RANGE = bytes(range(63, 127))


def write_graph6(g: Graph) -> str:
    """Serialize to one graph6 record: size byte n+63, then the upper
    triangle x(i,j), j=1..n-1, i=0..j-1, packed big-endian six bits per byte
    with +63 offset and zero padding in the final byte."""
    if g.n < 1:
        raise InvalidParameterError("cannot serialize a graph with no vertices")
    if g.n > 62:
        raise UnsupportedSizeError(f"graph6 single size byte supports n <= 62, got n={g.n}")
    acc = 0
    start = 0
    for j in range(1, g.n):
        acc |= (g.rows[j] & ((1 << j) - 1)) << start
        start += j
    return chr(g.n + 63) + "".join(_GROUP_CHAR[(acc >> p) & 63] for p in range(0, start, 6))


def parse_graph6(data: bytes | str) -> Graph:
    """Parse one graph6 record (optional trailing newline tolerated).  The
    padding bits of the last byte must be zero, as graph6 requires."""
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError("non-ASCII byte", exc.start) from None
    else:
        raw = bytes(data)
    raw = raw.rstrip(b"\r\n")
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
    bad = raw.translate(None, _BYTES_IN_RANGE)
    if bad:
        # the size byte is in range, so the first byte left is the bad one
        raise Graph6ParseError(f"adjacency byte {bad[0]} out of range", raw.index(bad[0]))
    acc = int(raw[:0:-1].decode("ascii").translate(_BYTE_BITS) or "0", 2)
    if acc >> nbits:
        raise Graph6ParseError("nonzero padding bits in last byte", need)
    rows = [0] * n
    for j in range(1, n):
        rows[j] = col = acc & ((1 << j) - 1)
        acc >>= j
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Canonical form: lexicographically least adjacency bit string over all
# vertex orderings, upper triangle read column by column (the graph6 bit
# order).  Used for isomorphism rejection in enumerate_regular and as a
# hashable isomorphism invariant.  The search places one vertex at a time and
# keeps the unplaced vertices as cells, one bit mask per block against the
# placed prefix, in block order (the ordered partition of nauty-style
# refinement, without refining).  Only the first cell can come next, and of
# two twins in it (same neighbours apart from each other) only one is tried.
# enumerate_regular searches only when an O(1) test passes first: if the new
# vertex's block, its last bit dropped, is below the block before it, swapping
# the last two vertices gives a smaller labeling (at (10, 4) this leaves
# 3,123 of the 12,090 searches).
# ---------------------------------------------------------------------------

def _block(row: int, j: int) -> int:
    # bits x(0,j)..x(j-1,j) of vertex j's row, x(0,j) most significant
    b = 0
    for i in range(j):
        b = (b << 1) | ((row >> i) & 1)
    return b


def _blocks(rows: Sequence[int], m: int) -> list[int]:
    # block j of the current labeling; the concatenation of blocks is the
    # graph6 bit stream (block 0 is empty and always 0)
    return [_block(rows[j], j) for j in range(m)]


def _twin_masks(rows: Sequence[int], m: int) -> list[int]:
    # twins[v]: the w != v whose neighbours, apart from v and w, are v's;
    # swapping v and w is then an automorphism.  Non-adjacent twins share
    # their row, adjacent twins their row plus their own bit.
    by_row: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v in range(m):
        r, bit = rows[v], 1 << v
        by_row[r] = by_row.get(r, 0) | bit
        by_closed[r | bit] = by_closed.get(r | bit, 0) | bit
    return [(by_row[rows[v]] | by_closed[rows[v] | 1 << v]) & ~(1 << v) for v in range(m)]


def _least_blocks(rows: Sequence[int], m: int, best: list[int], first: bool = False) -> bool:
    """Depth-first search over the vertex orderings of rows[:m] for the least
    block list.  Every prefix above `best` is dropped, and `best` is lowered
    in place when a smaller prefix turns up.  With `first`, `best` is only
    read, and the search returns True at the first prefix below it; otherwise
    it returns False."""
    if not any(rows[:m]):
        return False  # edgeless (or empty): every labeling ties
    top = 1 << m  # above every block
    twins = _twin_masks(rows, m)

    def rec(k: int, cells: list[tuple[int, int]]) -> bool:
        # cells: (block, mask of the unplaced vertices with that block against
        # the k placed vertices), nonempty, in increasing block order
        low, cands = cells[0]
        if low > best[k]:
            return False
        if low < best[k]:
            if first:
                return True
            best[k:] = [low] + [top] * (m - 1 - k)
        if k + 1 < m:
            done = 0
            while cands:
                bit = cands & -cands
                cands ^= bit
                u = bit.bit_length() - 1
                if twins[u] & done:
                    continue  # a twin's subtree gave the same block lists
                done |= bit
                # place u: each cell splits into non-neighbours, then neighbours
                row = rows[u]
                away = ~(row | bit)
                split = []
                for b, mask in cells:
                    b <<= 1
                    if mask & away:
                        split.append((b, mask & away))
                    if mask & row:
                        split.append((b | 1, mask & row))
                if rec(k + 1, split):
                    return True
        return False

    return rec(0, [(0, (1 << m) - 1)])


def _pack_blocks(blocks: Sequence[int]) -> int:
    v = 0
    for k, b in enumerate(blocks):
        v = (v << k) | b
    return v


def canonical_key(g: Graph) -> tuple[int, int]:
    """Hashable isomorphism invariant: (n, packed least bit string)."""
    best = _blocks(g.rows, g.n)
    _least_blocks(g.rows, g.n, best)
    return (g.n, _pack_blocks(best))


def _is_canonical_prefix(rows: Sequence[int], m: int, blocks: list[int]) -> bool:
    # blocks: _blocks(rows, m), or a longer list that starts with it
    return not _least_blocks(rows, m, blocks, first=True)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of d-regular graphs up to isomorphism
# ---------------------------------------------------------------------------

def enumerate_regular(n: int, d: int, *, connected: bool = True) -> Iterator[Graph]:
    """Yield exactly one representative per isomorphism class of d-regular
    graphs on n vertices, in a deterministic order.

    By default only connected graphs are produced (disconnected regular
    graphs factor into smaller members of the same families and can be
    assembled with disjoint_copies).  Generation is refused above the cap,
    which defaults to 12 and can be overridden with the CHROMA_CAP_N
    environment variable.  An odd n*d is refused, since no such graph exists.

    The search adds one vertex at a time together with its back-edges and
    keeps a partial graph only when it is degree-feasible and its adjacency
    bit string is the lexicographic minimum over all relabelings, so each
    isomorphism class survives along exactly one path.
    """
    cap_text = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
    try:
        cap = int(cap_text)
    except ValueError:
        raise InvalidParameterError(f"{ENUM_CAP_ENV} must be an integer, got {cap_text!r}") from None
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    if d < 0 or d >= n:
        raise InvalidParameterError("need 0 <= d < n")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds generation cap {cap}")
    if (n * d) % 2 == 1:
        raise InvalidParameterError(f"n*d = {n * d} is odd: no {d}-regular graph on {n} vertices exists")
    return _generate_regular(n, d, connected)


def _generate_regular(n: int, d: int, connected: bool) -> Iterator[Graph]:
    rows = [0] * n
    degs = [0] * n
    blocks = [0] * n  # blocks[i] of the prefix; adding later vertices keeps it

    def feasible(m: int) -> bool:
        # prefix on m vertices is complete; f future vertices remain
        f = n - m
        total_def = 0
        for i in range(m):
            di = d - degs[i]
            if di < 0 or di > f:
                return False
            total_def += di
        if total_def > f * min(d, m):
            return False
        future_internal = f * d - total_def
        if future_internal < 0 or future_internal % 2 or future_internal > f * (f - 1):
            return False
        return True

    def rec(j: int) -> Iterator[Graph]:
        if j == n:
            if not connected or len(components(rows, (1 << n) - 1)) == 1:
                yield Graph(n, tuple(rows))
            return
        allowed = [i for i in range(j) if degs[i] < d]
        f_after = n - 1 - j
        lo = max(0, d - f_after)
        hi = min(d, len(allowed))
        for size in range(lo, hi + 1):
            for combo in combinations(allowed, size):
                r = b = 0
                for i in combo:
                    r |= 1 << i
                    b |= 1 << (j - 1 - i)
                if j and b >> 1 < blocks[j - 1]:
                    # swapping j - 1 and j gives a smaller labeling, and b
                    # only falls as the combinations of one size go on
                    break
                rows[j] = r
                degs[j] = size
                blocks[j] = b
                for i in combo:
                    rows[i] |= 1 << j
                    degs[i] += 1
                if feasible(j + 1) and _is_canonical_prefix(rows, j + 1, blocks):
                    yield from rec(j + 1)
                for i in combo:
                    rows[i] &= ~(1 << j)
                    degs[i] -= 1
                rows[j] = 0
                degs[j] = 0

    return rec(0)
