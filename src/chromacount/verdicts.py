"""Exact big-integer verdicts comparing a regular graph against the
complete-bipartite (and complete-graph) reference values.

Every comparison clears fractional exponents by raising both sides to
integer powers: c_q(G) <= c_q(K_{d,d})^(n/2d) becomes
c_q(G)^(2d) <= c_q(K_{d,d})^n, decided in exact integer arithmetic.  The
log2 slack is display-only and never decides anything.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache, reduce
from operator import or_

from . import counting
from .counting import count_colorings, count_homomorphisms, count_independent_sets, independence_number
from .errors import CapExceededError, InvalidParameterError, NotRegularError
from .graphs import Graph, TargetGraph, regular_degree, vertices_of, write_graph6
# not called here: bench/tracing.py wraps verdicts.classify by name, so the
# name stays importable
from .graphs import classify  # noqa: F401
from .kdd import count_colorings_kdd


PowerComparison = namedtuple("PowerComparison", "lhs_base lhs_exp rhs_base rhs_exp holds equality slack_log2")


def _compare_powers(lhs_base: int, lhs_exp: int, rhs_base: int, rhs_exp: int) -> PowerComparison:
    lhs = lhs_base ** lhs_exp
    rhs = rhs_base ** rhs_exp
    if lhs == 0 and rhs == 0:
        slack = 0.0
    elif lhs == 0:
        slack = math.inf
    elif rhs == 0:
        slack = -math.inf
    else:
        slack = rhs_exp * math.log2(rhs_base) - lhs_exp * math.log2(lhs_base)
    return PowerComparison(lhs_base, lhs_exp, rhs_base, rhs_exp, lhs <= rhs, lhs == rhs, slack)


Verdict = namedtuple("Verdict", [
    "target",
    "comparisons",  # tuple of PowerComparison
    "holds",
    "equality",
    "slack_log2",
])


def _regular_degree(g: Graph, min_d: int = 2) -> int:
    d = regular_degree(g)
    if d is None:
        raise NotRegularError("graph is not regular")
    if d < min_d:
        raise NotRegularError(f"degree must be at least {min_d}")
    return d


def _verdict(target: str, *comparisons: PowerComparison) -> Verdict:
    """The verdict holds, or is an equality, when any of its comparisons is;
    its slack is the largest."""
    *_, holds, equality, slack = zip(*comparisons)
    return Verdict(target, comparisons, any(holds), any(equality), max(slack))


def conjecture_verdict(g: Graph, q: int) -> Verdict:
    """Exact check of c_q(G)^(2d) <= c_q(K_{d,d})^n for a d-regular G."""
    d = _regular_degree(g)
    return _verdict(f"colorings q={q}", _compare_powers(count_colorings(g, q), 2 * d, count_colorings_kdd(d, q), g.n))


def _key(mask: int) -> bytes:
    """A non-empty mask as bytes: its lowest vertex, then the mask from there
    on.  An int hashes modulo 2^61 - 1, so the sets {v} would share 61 hashes."""
    low = (mask & -mask).bit_length() - 1
    return low.to_bytes(4, "little") + (mask >> low).to_bytes((mask.bit_length() - low + 7) // 8, "little")


def _common_sum(rows: tuple[int, ...], d: int, clique: bool) -> int:
    """The sum of |C|^d over the d-tuples of vertices of H, with C the tuple's
    common neighbourhood, or with `clique` the sum of |C| over the d-tuples
    that are cliques (a repeated vertex looped).  A table maps each non-empty
    C of the tuples so far to their number; the last step is summed, not
    stored.  A tuple grows by the vertices with a neighbour in C, or with
    `clique` by those in C.  Each (C, candidate) is charged to
    BACKTRACK_NODE_CAP.  A key counts as one state plus one per 64 bytes, and
    a table of more than DEFAULT_STATE_CAP states raises CapExceededError."""
    full = (1 << len(rows)) - 1
    reach = reduce(or_, rows, 0)
    table, total = {_key(full): 1}, 0
    budget = counting.BACKTRACK_NODE_CAP
    for step in range(d, 0, -1):
        nxt: dict[bytes, int] = {}
        held = 0
        for key, w in table.items():
            common = int.from_bytes(key[4:], "little") << int.from_bytes(key[:4], "little")
            # with C every vertex, both candidate sets are `reach`
            if clique or common == full:
                cand = common & reach
            else:
                cand = reduce(or_, map(rows.__getitem__, vertices_of(common)), 0)
            budget -= cand.bit_count()
            if budget < 0:
                raise counting._node_cap_error()
            while cand:
                low = cand & -cand
                cand ^= low
                inner = common & rows[low.bit_length() - 1]
                if inner and step == 1:
                    total += w * inner.bit_count() ** (1 if clique else d)
                elif inner:
                    key = _key(inner)
                    if key not in nxt:
                        held += 1 + len(key) // 64
                    nxt[key] = nxt.get(key, 0) + w
            if held > counting.DEFAULT_STATE_CAP:
                raise CapExceededError(f"hom reference table exceeds state cap {counting.DEFAULT_STATE_CAP}")
        table = nxt
    return total


@lru_cache(maxsize=None)
def _hom_references(d: int, h: TargetGraph) -> tuple[int, int]:
    """hom(K_{d,d}, H) and hom(K_{d+1}, H), one computation per (d, H) and
    process.  K_{d,d} maps one side to a d-tuple with common neighbourhood C
    and the other into C, in |C|^d ways; K_{d+1} maps d vertices to a d-tuple
    that is a clique and the last into its C."""
    return _common_sum(h.rows, d, False), _common_sum(h.rows, d, True)


def hom_conjecture_verdict(g: Graph, h: TargetGraph) -> Verdict:
    """Exact check of hom(G,H) against the maximum of hom(K_{d,d},H)^(n/2d)
    and hom(K_{d+1},H)^(n/(d+1)); holds when either cleared comparison does."""
    d = _regular_degree(g)
    lhs = count_homomorphisms(g, h)
    kdd_hom, clique_hom = _hom_references(d, h)
    return _verdict("hom", _compare_powers(lhs, 2 * d, kdd_hom, g.n), _compare_powers(lhs, d + 1, clique_hom, g.n))


def alon_kahn_verdict(g: Graph) -> Verdict:
    """Exact check of i(G)^(2d) <= (2^(d+1) - 1)^n for a d-regular G."""
    d = _regular_degree(g)
    return _verdict("independent-sets", _compare_powers(count_independent_sets(g), 2 * d, 2 ** (d + 1) - 1, g.n))


ScanRow = namedtuple("ScanRow", "graph6 alpha count")


ScanResult = namedtuple("ScanResult", [
    "n",
    "d",
    "q",
    "eps",          # a Fraction
    "max_count",
    "argmax",       # the least graph6 with max_count, None if no row
    "rows",         # ScanRow of every family member that passed the filter
    "family_size",  # every family member, filtered or not
])


def _eps_fraction(eps) -> Fraction:
    """eps as an exact fraction in [0, 1]; a float is read by its decimal
    repr, so 0.4 is 2/5."""
    # imported here: verify and count make no Fraction, and the annotations
    # that name it are never evaluated
    from fractions import Fraction

    if isinstance(eps, str):
        # Fraction("1e-5000") builds 10**5000, too long to print, and
        # "1e-100000000" does not end.  The digits before the exponent plus
        # the exponent bound the digits of the numerator and denominator, so
        # they are held to the integer-to-string limit before any is built.
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        mantissa, _, exp = eps.lower().partition("e")
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        if not exp.isdecimal():
            exp = "0"  # no exponent, or text that Fraction refuses below
        if len(exp) > len(str(limit)) or sum(map(str.isdigit, mantissa)) + int(exp) > limit:
            raise InvalidParameterError(f"eps would need integers of more than {limit} digits")
    try:
        eps_frac = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidParameterError(f"eps {eps!r} is not a number") from None
    if not 0 <= eps_frac <= 1:
        raise InvalidParameterError("eps must lie in [0, 1]")
    return eps_frac


def alpha_admitted(alpha: int, n: int, eps: Fraction) -> bool:
    """The scan's constraint on the independence number: 2*alpha <= n(1 - eps)."""
    return 2 * alpha <= n * (1 - eps)


def constrained_scan(family: Iterable[Graph], q: int, eps) -> ScanResult:
    """Maximum of c_q over the family members whose independence number is
    at most (n/2)(1-eps), with the full (alpha, count) table sorted by
    graph6 string.  The family must share one (n, d); it is iterated once,
    after q and eps are checked, so a generator is never advanced on bad
    arguments."""
    if q < 0:
        raise InvalidParameterError("q must be non-negative")
    eps_frac = _eps_fraction(eps)
    n = d = None
    rows = []
    best: tuple[int, str] | None = None
    family_size = 0
    for g in family:
        family_size += 1
        dg = _regular_degree(g, min_d=0)
        if n is None:
            n, d = g.n, dg
        elif (g.n, dg) != (n, d):
            raise InvalidParameterError(f"mixed family: ({g.n},{dg}) next to ({n},{d})")
        alpha = independence_number(g)
        if not alpha_admitted(alpha, n, eps_frac):
            continue
        count = count_colorings(g, q)
        g6 = write_graph6(g)
        rows.append(ScanRow(g6, alpha, count))
        if best is None or count > best[0] or (count == best[0] and g6 < best[1]):
            best = (count, g6)
    rows.sort(key=lambda r: r.graph6)
    max_count, argmax = best or (0, None)
    return ScanResult(n or 0, d or 0, q, eps_frac, max_count, argmax, tuple(rows), family_size)
