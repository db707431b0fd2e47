"""Graph representation, standard constructors, graph6 serialization, and
exhaustive enumeration of small regular graphs up to isomorphism.

Vertices are 0-indexed integers.  Every vertex set crossing this API is a bit
mask (``int``) with bit ``v`` standing for vertex ``v``, the same convention
used for the adjacency rows themselves.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

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
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected loopless graph: vertex count plus one adjacency
    bit mask per vertex.  Immutable and hashable; safe to share."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParameterError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise InvalidParameterError("adjacency row count must equal n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise InvalidParameterError(f"adjacency bits of vertex {v} out of range")
            if (row >> v) & 1:
                raise InvalidParameterError(f"loop at vertex {v} not allowed")
        for u in range(self.n):
            ru = self.rows[u]
            for v in range(u + 1, self.n):
                if ((ru >> v) & 1) != ((self.rows[v] >> u) & 1):
                    raise InvalidParameterError(f"adjacency not symmetric at ({u},{v})")

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return vertices_of(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v in lexicographic order."""
        out = []
        for u in range(self.n):
            ru = self.rows[u] >> (u + 1)
            v = u + 1
            while ru:
                if ru & 1:
                    out.append((u, v))
                ru >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


@dataclass(frozen=True)
class TargetGraph:
    """Homomorphism target: symmetric adjacency where diagonal bits (loops)
    are permitted.  No multiple edges by construction."""

    k: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0:
            raise InvalidParameterError("vertex count must be non-negative")
        if len(self.rows) != self.k:
            raise InvalidParameterError("adjacency row count must equal k")
        full = (1 << self.k) - 1 if self.k else 0
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise InvalidParameterError(f"adjacency bits of vertex {v} out of range")
        for u in range(self.k):
            for v in range(u + 1, self.k):
                if ((self.rows[u] >> v) & 1) != ((self.rows[v] >> u) & 1):
                    raise InvalidParameterError(f"adjacency not symmetric at ({u},{v})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def has_loop(self, v: int) -> bool:
        return bool((self.rows[v] >> v) & 1)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph on n vertices from an edge list."""
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"edge ({u},{v}) out of range")
        if u == v:
            raise InvalidParameterError(f"loop at {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def target_from_edges(k: int, edges: Iterable[tuple[int, int]]) -> TargetGraph:
    """Build a TargetGraph; an edge (v, v) is a loop."""
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    rows = [0] * k
    for u, v in edges:
        if not (0 <= u < k and 0 <= v < k):
            raise InvalidParameterError(f"edge ({u},{v}) out of range")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return TargetGraph(k, tuple(rows))


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
    rows = [0] * g.n
    for new, old in enumerate(perm):
        r = g.rows[old]
        nr = 0
        v = 0
        while r:
            if r & 1:
                nr |= 1 << inv[v]
            r >>= 1
            v += 1
        rows[new] = nr
    return Graph(g.n, tuple(rows))


@dataclass(frozen=True)
class Classification:
    n: int
    degree: int | None  # common degree if regular, else None
    bipartite: bool
    components: int


def classify(g: Graph) -> Classification:
    """Regularity, bipartiteness (2-coloring search) and component count."""
    degs = {g.degree(v) for v in range(g.n)} if g.n else set()
    degree = degs.pop() if len(degs) == 1 else None
    color = [-1] * g.n
    bipartite = True
    components = 0
    for s in range(g.n):
        if color[s] >= 0:
            continue
        components += 1
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    return Classification(g.n, degree, bipartite, components)


def components(rows: Sequence[int], mask: int) -> list[int]:
    """Vertex masks of the connected components of the subgraph induced on
    `mask` (adjacency rows as bit masks), ordered by least vertex."""
    comps = []
    unseen = mask
    while unseen:
        seen = frontier = unseen & -unseen
        while frontier:
            nxt = 0
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                nxt |= rows[v]
            frontier = nxt & mask & ~seen
            seen |= frontier
        comps.append(seen)
        unseen &= ~seen
    return comps


def induced_subgraph(g: Graph, s: int) -> Graph:
    """Induced subgraph on the vertex mask s, relabeled 0..|s|-1 preserving
    order.  The empty mask yields the 0-vertex graph (internal use only)."""
    if s & ~((1 << g.n) - 1):
        raise InvalidParameterError("vertex mask out of range")
    verts = vertices_of(s)
    index = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        r = g.rows[v] & s
        nr = 0
        for w in vertices_of(r):
            nr |= 1 << index[w]
        rows.append(nr)
    return Graph(len(verts), tuple(rows))


# ---------------------------------------------------------------------------
# graph6 serialization (single size byte, 1 <= n <= 62)
# ---------------------------------------------------------------------------

def write_graph6(g: Graph) -> str:
    """Serialize to one graph6 record: size byte n+63, then the upper
    triangle x(i,j), j=1..n-1, i=0..j-1, packed big-endian six bits per byte
    with +63 offset and zero padding in the final byte."""
    if g.n < 1:
        raise InvalidParameterError("cannot serialize a graph with no vertices")
    if g.n > 62:
        raise UnsupportedSizeError(f"graph6 single size byte supports n <= 62, got n={g.n}")
    chars = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        rj = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((rj >> i) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chars.append(chr(acc + 63))
    return "".join(chars)


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
        val = byte - 63
        for t in range(5, -1, -1):
            if k < nbits and (val >> t) & 1:
                i, j = pairs[k]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    pad = 6 * need - nbits
    if (raw[-1] - 63) & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits in last byte", need)
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
                r = 0
                for i in combo:
                    r |= 1 << i
                rows[j] = r
                degs[j] = size
                blocks[j] = _block(r, j)
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
