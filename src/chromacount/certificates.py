"""Greedy container certificates for independent sets in regular graphs,
compatible-partition product bounds, the matching refinement, the
forbidden-interval product lemma, and a fully explicit integer upper bound
on the number of proper q-colorings of any n-vertex d-regular graph.

The certificate for an independent set I grows a seed set T greedily: while
some u in I adds at least t new neighbors, the least such u joins T.  The
container D collects every vertex outside N(T) with fewer than t neighbors
outside N(T).  Then |T| <= n/t, I is a subset of D, and
|D| <= n*d/(2d - t + 1).  The paper's threshold phi = sqrt(d log2 d)/q enters
only as the integer t = threshold(d, q) = ceil(phi): for an integer x,
x >= phi exactly when x >= t, so every decision is an integer test.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .counting import greedy_maximal_matching
from .errors import InvalidParameterError
from .graphs import Graph, induced_subgraph, vertices_of
from .verdicts import _eps_fraction, _regular_degree


def _check_dq(d: int, q: int) -> None:
    if d < 2:
        raise InvalidParameterError("d must be at least 2 (log2(1) = 0 degenerates)")
    if q < 2:
        raise InvalidParameterError("q must be at least 2")


def phi(d: int, q: int) -> float:
    """sqrt(d * log2(d)) / q, for display only; always below d on its domain."""
    _check_dq(d, q)
    value = math.sqrt(d * math.log2(d)) / q
    assert value < d
    return value


def threshold(d: int, q: int) -> int:
    """ceil(phi(d, q)), exactly: the least integer t with 2^((q*t)^2) >= d^d."""
    _check_dq(d, q)
    k = (d**d - 1).bit_length()  # the least k with 2^k >= d^d
    return -(-(math.isqrt(k - 1) + 1) // q)  # the least t with (q*t)^2 >= k


def _check_threshold(t: int) -> None:
    # a float here is a stale phi: it must not decide anything
    if not isinstance(t, int) or t < 1:
        raise InvalidParameterError(f"threshold must be an int >= 1, got {t!r}")


class Certificate(namedtuple("Certificate", "t_mask d_mask source_mask threshold trace")):
    """Greedy seed set T, container D, the source independent set, the
    integer threshold t, and the growth trace [(u, new-neighbor count), ...]."""

    __slots__ = ()


def build_certificate(g: Graph, indset: int, t: int) -> Certificate:
    """Run the greedy construction for the independent set `indset` (a bit
    mask) at the integer threshold t.  Deterministic: ties break toward the
    least vertex index."""
    _check_threshold(t)
    _regular_degree(g, 1)
    full = (1 << g.n) - 1
    if indset == 0:
        raise InvalidParameterError("independent set must be nonempty")
    if indset & ~full:
        raise InvalidParameterError("vertex mask out of range")
    for v in vertices_of(indset):
        if g.rows[v] & indset:
            raise InvalidParameterError("set is not independent")

    t_mask = 0
    nt = 0  # N(T)
    trace: list[tuple[int, int]] = []
    while True:
        chosen = -1
        gain = 0
        for u in vertices_of(indset):
            new = (g.rows[u] & ~nt).bit_count()
            if new >= t:
                chosen, gain = u, new
                break
        if chosen < 0:
            break
        t_mask |= 1 << chosen
        nt |= g.rows[chosen]
        trace.append((chosen, gain))

    d_mask = 0
    for v in range(g.n):
        if (nt >> v) & 1:
            continue
        outside = (g.rows[v] & ~nt).bit_count()
        if outside < t:
            d_mask |= 1 << v
    return Certificate(t_mask, d_mask, indset, t, tuple(trace))


CheckResult = namedtuple("CheckResult", "name passed slack")


class CertificateReport(namedtuple("CertificateReport", "checks passed")):
    # checks: tuple of CheckResult
    __slots__ = ()

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_certificate(g: Graph, cert: Certificate) -> CertificateReport:
    """Re-derive every certificate invariant as an integer test, plus the
    edge-counting sandwich (d - t + 1)|D| <= e(D, N(T)) <= d(n - |D|).  Each
    slack is an integer, >= 0 exactly when its check passes: an inequality's
    margin, or minus the number of vertices a membership check finds out of
    place."""
    d = _regular_degree(g, 1)
    n = g.n
    t = cert.threshold
    nt = 0
    for u in vertices_of(cert.t_mask):
        nt |= g.rows[u]
    d_size = cert.d_mask.bit_count()
    outside = [(g.rows[v] & ~nt).bit_count() for v in vertices_of(cert.d_mask)]
    edges_d_nt = sum((g.rows[v] & nt).bit_count() for v in vertices_of(cert.d_mask))
    slacks = {
        "t_in_source": -(cert.t_mask & ~cert.source_mask).bit_count(),
        "t_size": n - cert.t_mask.bit_count() * t,
        "source_in_d": -(cert.source_mask & ~cert.d_mask).bit_count(),
        "d_size": n * d - d_size * (2 * d - t + 1),
        "d_avoids_nt": -(cert.d_mask & nt).bit_count(),
        "d_members_small_outside": t - 1 - max(outside, default=t - 1),
        "edge_count_lower": edges_d_nt - (d - t + 1) * d_size,
        "edge_count_upper": d * (n - d_size) - edges_d_nt,
    }
    checks = tuple(CheckResult(name, slack >= 0, slack) for name, slack in slacks.items())
    return CertificateReport(checks, all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# Per-coloring container profiles and the compatible-partition bound
# ---------------------------------------------------------------------------

class DProfile(namedtuple("DProfile", "d_sets multiplicities product total")):
    """Container list (D_1..D_q) with, for every vertex v, the multiplicity
    a_v = #{k : v in D_k}; `product` is the exact number of ordered vertex
    partitions (I_1..I_q) with I_k contained in D_k."""

    __slots__ = ()

    @property
    def q(self) -> int:
        return len(self.d_sets)


def _profile_from_sets(n: int, d_sets: Sequence[int]) -> DProfile:
    mult = []
    for v in range(n):
        mult.append(sum((dk >> v) & 1 for dk in d_sets))
    prod = 1
    for a in mult:
        prod *= a
    return DProfile(tuple(d_sets), tuple(mult), prod, sum(mult))


def container_size_cap(n: int, d: int, t: int) -> int:
    """Largest container size allowed by |D|*(2d - t + 1) <= n*d."""
    _check_threshold(t)
    # a threshold above d bounds nothing: the divisor d then gives n
    return min(n, n * d // max(2 * d - t + 1, d))


def d_profile(g: Graph, coloring: Sequence[int], q: int, t: int) -> DProfile:
    """Containers of the color classes of a proper coloring (values 1..q) at
    the integer threshold t.  An empty class gets the deterministic
    completion: the first container_size_cap(n, d, t) vertices."""
    n = g.n
    if q < 1:
        raise InvalidParameterError("q must be at least 1")
    if len(coloring) != n:
        raise InvalidParameterError("coloring length must equal n")
    for v in range(n):
        if not 1 <= coloring[v] <= q:
            raise InvalidParameterError(f"color of vertex {v} outside 1..q")
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            raise InvalidParameterError(f"coloring is not proper at edge ({u},{v})")
    d = _regular_degree(g, 1)
    completion = (1 << container_size_cap(n, d, t)) - 1
    d_sets = []
    for k in range(1, q + 1):
        class_mask = 0
        for v in range(n):
            if coloring[v] == k:
                class_mask |= 1 << v
        if class_mask:
            d_sets.append(build_certificate(g, class_mask, t).d_mask)
        else:
            d_sets.append(completion)
    return _profile_from_sets(n, d_sets)


def compatible_count(profile: DProfile) -> int:
    """Exact number of ordered partitions compatible with the containers:
    the product of the multiplicities."""
    return profile.product


def _padded(n: int, profile: DProfile) -> tuple[DProfile, int]:
    """The profile with its largest container (the first of equal ones)
    padded with the smallest missing vertices up to ceil(n/2) vertices, and
    that container."""
    half = (n + 1) // 2
    sizes = [dk.bit_count() for dk in profile.d_sets]
    k = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
    chosen = profile.d_sets[k]
    if sizes[k] < half:
        for v in vertices_of(((1 << n) - 1) & ~chosen)[: half - sizes[k]]:
            chosen |= 1 << v
        padded = list(profile.d_sets)
        padded[k] = chosen
        profile = _profile_from_sets(n, padded)
    return profile, chosen


def refined_bound(g: Graph, profile: DProfile, q: int) -> Fraction:
    """Upper bound on proper colorings compatible with the profile: take the
    container of size >= n/2 that _padded chooses, the greedy maximal
    matching M of the subgraph it induces, and return
    (prod a_v) * (1 - 1/q^2)^|M| exactly."""
    if q < 2:
        raise InvalidParameterError("q must be at least 2")
    profile, chosen = _padded(g.n, profile)
    matching = greedy_maximal_matching(induced_subgraph(g, chosen))
    return Fraction(profile.product) * Fraction(q * q - 1, q * q) ** len(matching)


# ---------------------------------------------------------------------------
# Forbidden-interval product lemma
# ---------------------------------------------------------------------------

LemmaBound = namedtuple("LemmaBound", [
    "bound",       # (a^2 - delta^2)^(m/2), a float
    "holds",       # prod a_i <= bound, decided exactly via squares
    "equality",
    "degenerate",  # a <= delta
])


def lemma_opt_bound(values: Sequence, a, delta) -> LemmaBound:
    """For positive rationals with mean exactly `a`, none inside the open
    interval (a - delta, a + delta): the product is at most
    (a^2 - delta^2)^(m/2).  Comparison is exact (squared sides)."""
    vals = [Fraction(v) for v in values]
    if not vals:
        raise InvalidParameterError("need at least one value")
    a = Fraction(a)
    delta = Fraction(delta)
    if delta < 0:
        raise InvalidParameterError("delta must be non-negative")
    if any(v <= 0 for v in vals):
        raise InvalidParameterError("values must be positive")
    m = len(vals)
    if sum(vals) != a * m:
        raise InvalidParameterError("mean of values must equal a exactly")
    prod = Fraction(1)
    for v in vals:
        prod *= v
    base = a * a - delta * delta
    if base <= 0:
        # a <= delta: the stated bound collapses to 0; report, don't raise
        # (the gap hypothesis cannot hold here for positive values anyway)
        return LemmaBound(0.0, prod * prod <= 0, False, True)
    for v in vals:
        if a - delta < v < a + delta:
            raise InvalidParameterError(f"value {v} lies inside the forbidden interval")
    bound_sq = base ** m
    holds = prod * prod <= bound_sq
    equality = prod * prod == bound_sq
    try:
        display = math.sqrt(float(bound_sq))
    except OverflowError:
        display = math.inf
    return LemmaBound(display, holds, equality, False)


# ---------------------------------------------------------------------------
# Fully explicit finite-d weak bound
# ---------------------------------------------------------------------------

def _binomial_sum(n: int, k: int) -> int:
    # sum of C(n, i) for 0 <= i <= k, by C(n, i+1) = C(n, i) * (n - i) / (i + 1)
    if k >= n:
        return 1 << n  # every subset
    total = term = 1
    for i in range(k):
        term = term * (n - i) // (i + 1)
        total += term
    return total


def _sum_cap(n: int, d: int, q: int, t: int) -> int:
    # q containers of at most container_size_cap vertices, one padded up to
    # ceil(n/2) by _padded: a bound on the sum of the multiplicities
    return q * max(container_size_cap(n, d, t), (n + 1) // 2)


def _product_cap(s: int, n: int) -> int:
    """The largest product of n positive integers with sum at most s, for
    s >= n: that of the balanced vector of floor(s/n)s and ceil(s/n)s."""
    fl, r = divmod(s, n)
    return fl ** (n - r) * (fl + 1) ** r


def explicit_weak_bound(n: int, d: int, q: int, eps=None) -> int:
    """Fully explicit upper bound on the number of proper q-colorings of any
    n-vertex d-regular graph (with eps given: of any such graph whose largest
    independent set has at most (n/2)(1-eps) vertices).

    The bound is the floor of
        [sum_{i <= n // t} C(n,i)]^q  *  B  *  (1 - 1/q^2)^ceil(n*eps/4)
    with t = threshold(d, q): each container is fixed by a seed set of at
    most n/t vertices.  The multiplicities of a padded profile are positive
    integers with sum at most S = _sum_cap(n, d, q, t), and B is the largest
    product of such integers: B = _product_cap(S, n).  At S = qn/2 and even
    n that is eta(q)^(n/2).  A count is an integer, so the floor keeps the
    bound exact and certified.
    """
    if d < 2:
        raise InvalidParameterError("d must be at least 2")
    if n < d + 1:
        raise InvalidParameterError("n must be at least d+1")
    if q < 3:
        raise InvalidParameterError("q must be at least 3")
    eps_frac = None if eps is None else _eps_fraction(eps)

    t = threshold(d, q)
    out = _binomial_sum(n, n // t) ** q * _product_cap(_sum_cap(n, d, q, t), n)
    if eps_frac is not None:
        exponent = -(-n * eps_frac.numerator // (4 * eps_frac.denominator))  # ceil(n*eps/4)
        out = out * (q * q - 1) ** exponent // (q * q) ** exponent
    return out
