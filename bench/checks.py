"""Output checks for the benchmark workloads.

Each check reads chromacount's JSON-lines report and returns a list of
problems (empty when the report is right).  The reference values come from
theorems, published counts and counters written here with other algorithms
than the program's: a frontier dynamic program for colorings, an
all-subsets sweep for independent sets, and networkx for independence
numbers and isomorphism.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction

import networkx as nx

from corpora import CONNECTED_REGULAR, disjoint_kdd, from_graph6, is_connected, to_nx


def read_report(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# independent counters
# ---------------------------------------------------------------------------

def _bfs_order(rows: list[int]) -> list[int]:
    order: list[int] = []
    for s in range(len(rows)):
        if s in order:
            continue
        queue = [s]
        seen = {s}
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in range(len(rows)):
                if (rows[u] >> v) & 1 and v not in seen and v not in order:
                    seen.add(v)
                    queue.append(v)
    return order


def count_colorings(rows: list[int], q: int) -> int:
    """Proper q-colorings by a frontier dynamic program: vertices are added in
    BFS order and the state is the colour tuple of the vertices that still
    have unplaced neighbours."""
    order = _bfs_order(rows)
    pos = {v: i for i, v in enumerate(order)}
    last = {v: max([pos[v]] + [pos[w] for w in range(len(rows)) if (rows[v] >> w) & 1]) for v in order}
    frontier: list[int] = []
    states: dict[tuple, int] = {(): 1}
    for i, v in enumerate(order):
        adjacent = [k for k, w in enumerate(frontier) if (rows[v] >> w) & 1]
        grown: dict[tuple, int] = defaultdict(int)
        for state, ways in states.items():
            used = {state[k] for k in adjacent}
            for c in range(q):
                if c not in used:
                    grown[state + (c,)] += ways
        frontier.append(v)
        keep = [k for k, w in enumerate(frontier) if last[w] > i]
        states = defaultdict(int)
        for state, ways in grown.items():
            states[tuple(state[k] for k in keep)] += ways
        frontier = [frontier[k] for k in keep]
    return sum(states.values())


def count_independent_sets(rows: list[int]) -> int:
    """All 2^n vertex subsets, each tested against its subset without the
    lowest vertex."""
    independent = bytearray(1 << len(rows))
    independent[0] = 1
    total = 1
    for mask in range(1, 1 << len(rows)):
        low = mask & -mask
        rest = mask ^ low
        if independent[rest] and not rows[low.bit_length() - 1] & rest:
            independent[mask] = 1
            total += 1
    return total


def independence_number(rows: list[int]) -> int:
    return max(len(c) for c in nx.find_cliques(nx.complement(to_nx(rows))))


def regular_degree(rows: list[int]) -> int | None:
    degrees = {r.bit_count() for r in rows}
    return degrees.pop() if len(degrees) == 1 else None


def is_kdd_union(rows: list[int], d: int) -> bool:
    """Every component is K_{d,d}."""
    unseen = (1 << len(rows)) - 1
    while unseen:
        v = (unseen & -unseen).bit_length() - 1
        side_b = rows[v]
        side_a = rows[(side_b & -side_b).bit_length() - 1] if side_b else 1 << v
        if side_a.bit_count() != d or side_b.bit_count() != d:
            return False
        for a in range(len(rows)):
            if (side_a >> a) & 1 and rows[a] != side_b:
                return False
            if (side_b >> a) & 1 and rows[a] != side_a:
                return False
        unseen &= ~(side_a | side_b)
    return True


def duplicate_isomorphs(graphs: list[list[int]]) -> list[tuple[int, int]]:
    """Index pairs of isomorphic graphs, bucketed by Weisfeiler-Lehman hash.
    Plain colour refinement cannot tell regular graphs of one degree apart,
    so the hash starts from the vertex signatures."""
    buckets: dict[str, list[int]] = defaultdict(list)
    as_nx = [to_nx(rows) for rows in graphs]
    for i, g in enumerate(as_nx):
        buckets[nx.weisfeiler_lehman_graph_hash(g, node_attr="signature", iterations=3)].append(i)
    pairs = []
    for members in buckets.values():
        for k, i in enumerate(members):
            pairs += [(j, i) for j in members[:k] if nx.is_isomorphic(as_nx[j], as_nx[i])]
    return pairs


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def _split(report: list[dict], kind: str) -> tuple[list[dict], list[dict]]:
    return [r for r in report if r.get("type") == kind], [r for r in report if r.get("type") != kind]


def _same_graphs(records: list[dict], corpus: list[str]) -> list[str]:
    if Counter(r["graph6"] for r in records) != Counter(corpus):
        return [f"report graphs differ from the corpus ({len(records)} records, {len(corpus)} graphs)"]
    return []


def _check_verdicts(report: list[dict], corpus: list[str], rhs_base, target: str, q, sample: frozenset[str], count) -> list[str]:
    """Shared by both verify workloads.  rhs_base(d) is the reference base,
    count(rows) the independent count for graphs in `sample`."""
    verdicts, rest = _split(report, "verdict")
    problems = _same_graphs(verdicts, corpus)
    if len(rest) != 1 or rest[0].get("type") != "summary":
        return problems + ["report does not end in exactly one summary line"]
    equalities = 0
    for r in verdicts:
        g6 = r["graph6"]
        rows = from_graph6(g6)
        d = regular_degree(rows)
        (c,) = r["comparisons"] if len(r["comparisons"]) == 1 else (None,)
        if c is None or r["target"] != target or r["q"] != q or (r["n"], r["d"]) != (len(rows), d):
            problems.append(f"{g6}: wrong target, q, n, d or comparison count")
            continue
        lhs, rhs = int(c["lhs_base"]), int(c["rhs_base"])
        if (c["lhs_exp"], c["rhs_exp"], rhs) != (2 * d, len(rows), rhs_base(d)):
            problems.append(f"{g6}: comparison is not count^(2d) vs {rhs_base(d)}^n")
        exact_holds = lhs ** (2 * d) <= rhs ** len(rows)
        exact_equal = lhs ** (2 * d) == rhs ** len(rows)
        if not (r["holds"] and c["holds"] and exact_holds):
            problems.append(f"{g6}: verdict does not hold, against the theorem")
        if r["equality"] != exact_equal or c["equality"] != exact_equal or exact_equal != is_kdd_union(rows, d):
            problems.append(f"{g6}: equality flag {r['equality']} but graph is{'' if is_kdd_union(rows, d) else ' not'} a union of K_{{d,d}}")
        if q is not None and lhs % (q * (q - 1)):
            problems.append(f"{g6}: count {lhs} not divisible by q(q-1)")
        if g6 in sample and count(rows) != lhs:
            problems.append(f"{g6}: count {lhs}, independent count {count(rows)}")
        equalities += exact_equal
    summary = rest[0]
    want = {"total": len(corpus), "verdicts": len(corpus), "holds": len(corpus), "equality": equalities, "failures": 0, "skipped": 0}
    got = {k: summary.get(k) for k in want}
    if got != want:
        problems.append(f"summary {got}, expected {want}")
    return problems


def check_verify_colorings(report: list[dict], corpus: list[str], q: int, sample: frozenset[str]) -> list[str]:
    def kdd(d: int) -> int:
        return count_colorings(disjoint_kdd(d, 1), q)

    return _check_verdicts(report, corpus, kdd, f"colorings q={q}", q, sample, lambda rows: count_colorings(rows, q))


def check_verify_indsets(report: list[dict], corpus: list[str], sample: frozenset[str]) -> list[str]:
    return _check_verdicts(report, corpus, lambda d: 2 ** (d + 1) - 1, "independent-sets", None, sample, count_independent_sets)


def check_count(report: list[dict], corpus: list[str], q: int, sample: frozenset[str]) -> list[str]:
    counts, rest = _split(report, "count")
    problems = _same_graphs(counts, corpus) + [f"unexpected record {r.get('type')}" for r in rest]
    for r in counts:
        g6 = r["graph6"]
        value = int(r["value"])
        if r["cross_check"] != "ok" or r["polynomial_value"] != r["value"]:
            problems.append(f"{g6}: cross_check {r['cross_check']}, value {r['value']}, polynomial_value {r['polynomial_value']}")
        if value % (q * (q - 1)):
            problems.append(f"{g6}: count {value} not divisible by q(q-1)")
        if g6 in sample and count_colorings(from_graph6(g6), q) != value:
            problems.append(f"{g6}: count {value}, independent count {count_colorings(from_graph6(g6), q)}")
    return problems


def check_family(report: list[dict], n: int, d: int, q: int) -> list[str]:
    """The whole family, from a scan at eps = 0 (every regular graph has
    2*alpha <= n, so nothing is filtered)."""
    rows_out, rest = _split(report, "scan-row")
    want = CONNECTED_REGULAR[d][n]
    problems = []
    if len(rest) != 1 or rest[0].get("family_size") != want or len(rows_out) != want:
        problems.append(f"family of {len(rows_out)} rows, published count is {want}")
    graphs = [from_graph6(r["graph6"]) for r in rows_out]
    for r, rows in zip(rows_out, graphs):
        if len(rows) != n or regular_degree(rows) != d or not is_connected(rows):
            problems.append(f"{r['graph6']}: not a connected {d}-regular graph on {n} vertices")
        elif r["alpha"] != independence_number(rows):
            problems.append(f"{r['graph6']}: alpha {r['alpha']}, networkx says {independence_number(rows)}")
        elif int(r["value"]) != count_colorings(rows, q):
            problems.append(f"{r['graph6']}: count {r['value']}, independent count {count_colorings(rows, q)}")
    problems += [f"{rows_out[i]['graph6']} and {rows_out[j]['graph6']} are isomorphic" for i, j in duplicate_isomorphs(graphs)]
    return problems


def check_scan(report: list[dict], family: list[dict], store: dict, n: int, d: int, q: int, eps: str) -> list[str]:
    """A scan at `eps` against the checked whole family and the records store."""
    rows_out, rest = _split(report, "scan-row")
    if len(rest) != 1:
        return ["report does not end in exactly one scan-max line"]
    head = rest[0]
    limit = n * (1 - Fraction(eps))
    expected = sorted((r["graph6"], r["alpha"], r["value"]) for r in family if r.get("type") == "scan-row" and 2 * r["alpha"] <= limit)
    got = sorted((r["graph6"], r["alpha"], r["value"]) for r in rows_out)
    problems = []
    if got != expected:
        problems.append(f"{len(got)} rows, expected the {len(expected)} family members with 2*alpha <= {limit}")
    if head["family_size"] != CONNECTED_REGULAR[d][n] or head["filtered"] != len(got):
        problems.append(f"family_size {head['family_size']}, filtered {head['filtered']}")
    best = max((int(v) for _, _, v in got), default=0)
    argmax = min((g6 for g6, _, v in got if int(v) == best), default=None)
    if (int(head["max"]), head["argmax"]) != (best, argmax):
        problems.append(f"max {head['max']} at {head['argmax']}, rows give {best} at {argmax}")
    stored = store.get(f"{n}:{d}:{q}:{Fraction(eps)}", {})
    if (stored.get("best"), stored.get("argmax")) != (str(best), argmax):
        problems.append(f"records store holds {stored.get('best')} at {stored.get('argmax')}, expected {best} at {argmax}")
    return problems
