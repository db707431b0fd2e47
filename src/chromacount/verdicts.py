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
from functools import lru_cache

from .counting import count_colorings, count_homomorphisms, count_independent_sets, independence_number
from .errors import InvalidParameterError, NotRegularError
from .graphs import Graph, TargetGraph, complete, complete_bipartite, write_graph6
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
    "graph6",
    "target",
    "comparisons",  # tuple of PowerComparison
    "holds",
    "equality",
    "slack_log2",
])


def _regular_degree(g: Graph, min_d: int = 2) -> int:
    degrees = {row.bit_count() for row in g.rows}
    if len(degrees) != 1:
        raise NotRegularError("graph is not regular")
    (d,) = degrees
    if d < min_d:
        raise NotRegularError(f"degree must be at least {min_d}")
    return d


def conjecture_verdict(g: Graph, q: int) -> Verdict:
    """Exact check of c_q(G)^(2d) <= c_q(K_{d,d})^n for a d-regular G."""
    d = _regular_degree(g)
    cmp = _compare_powers(count_colorings(g, q), 2 * d, count_colorings_kdd(d, q), g.n)
    return Verdict(write_graph6(g), f"colorings q={q}", (cmp,), cmp.holds, cmp.equality, cmp.slack_log2)


@lru_cache(maxsize=None)
def _hom_references(d: int, h: TargetGraph) -> tuple[int, int]:
    # hom(K_{d,d}, H) and hom(K_{d+1}, H): one computation per (d, H) and process
    return count_homomorphisms(complete_bipartite(d, d), h), count_homomorphisms(complete(d + 1), h)


def hom_conjecture_verdict(g: Graph, h: TargetGraph) -> Verdict:
    """Exact check of hom(G,H) against the maximum of hom(K_{d,d},H)^(n/2d)
    and hom(K_{d+1},H)^(n/(d+1)); holds when either cleared comparison does."""
    d = _regular_degree(g)
    lhs = count_homomorphisms(g, h)
    kdd_hom, clique_hom = _hom_references(d, h)
    kdd_side = _compare_powers(lhs, 2 * d, kdd_hom, g.n)
    clique_side = _compare_powers(lhs, d + 1, clique_hom, g.n)
    holds = kdd_side.holds or clique_side.holds
    equality = (kdd_side.holds and kdd_side.equality) or (clique_side.holds and clique_side.equality)
    slack = max(kdd_side.slack_log2, clique_side.slack_log2)
    return Verdict(write_graph6(g), "hom", (kdd_side, clique_side), holds, equality, slack)


ReferenceBound = namedtuple("ReferenceBound", [
    "base",     # c_q(K_{d,d})
    "exp_num",  # n
    "exp_den",  # 2d
])


def reference_bound(n: int, d: int, q: int) -> ReferenceBound:
    """The exact reference c_q(K_{d,d})^(n/2d) as a (base, n, 2d) triple."""
    if d < 1 or q < 2 or n < 1:
        raise InvalidParameterError("need d >= 1, q >= 2, n >= 1")
    return ReferenceBound(count_colorings_kdd(d, q), n, 2 * d)


def alon_kahn_verdict(g: Graph) -> Verdict:
    """Exact check of i(G)^(2d) <= (2^(d+1) - 1)^n for a d-regular G."""
    d = _regular_degree(g)
    cmp = _compare_powers(count_independent_sets(g), 2 * d, 2 ** (d + 1) - 1, g.n)
    return Verdict(write_graph6(g), "independent-sets", (cmp,), cmp.holds, cmp.equality, cmp.slack_log2)


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
