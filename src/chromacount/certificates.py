"""Greedy container certificates for independent sets in regular graphs,
compatible-partition product bounds, the matching refinement, the
forbidden-interval product lemma, and a fully explicit upper bound on the
number of proper q-colorings of any n-vertex d-regular graph.

The certificate for an independent set I grows a seed set T greedily: while
some u in I adds at least phi new neighbors, the least such u joins T.  The
container D collects every vertex outside N(T) with fewer than phi neighbors
outside N(T).  Then |T| <= n/phi, I is a subset of D, and
|D| <= n*d/(2d - phi).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .counting import greedy_maximal_matching
from .errors import InvalidParameterError
from .graphs import Graph, induced_subgraph, vertices_of
from .verdicts import _eps_fraction, _regular_degree

# comparison margin for integer-vs-real threshold tests; cardinalities are
# integers and phi is irrational except at rare powers of two, so this only
# documents intent
COMPARE_EPS = 1e-12


def phi(d: int, q: int) -> float:
    """sqrt(d * log2(d)) / q; always below d on its domain."""
    if d < 2:
        raise InvalidParameterError("d must be at least 2 (log2(1) = 0 degenerates)")
    if q < 2:
        raise InvalidParameterError("q must be at least 2")
    value = math.sqrt(d * math.log2(d)) / q
    assert value < d
    return value


@dataclass(frozen=True)
class Certificate:
    """Greedy seed set T, container D, the source independent set, the
    threshold phi, and the growth trace [(u, new-neighbor count), ...]."""

    t_mask: int
    d_mask: int
    source_mask: int
    phi: float
    trace: tuple[tuple[int, int], ...]


def build_certificate(g: Graph, indset: int, phi_value: float) -> Certificate:
    """Run the greedy construction for the independent set `indset` (a bit
    mask).  Deterministic: ties break toward the least vertex index."""
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
            if new >= phi_value - COMPARE_EPS:
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
        if outside < phi_value - COMPARE_EPS:
            d_mask |= 1 << v
    return Certificate(t_mask, d_mask, indset, phi_value, tuple(trace))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[CheckResult, ...]
    passed: bool

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_certificate(g: Graph, cert: Certificate) -> CertificateReport:
    """Re-derive every certificate invariant with numeric slacks, plus the
    edge-counting sandwich (d - phi)|D| <= e(D, N(T)) <= d(n - |D|)."""
    d = _regular_degree(g, 1)
    n = g.n
    p = cert.phi
    nt = 0
    for u in vertices_of(cert.t_mask):
        nt |= g.rows[u]
    t_size = cert.t_mask.bit_count()
    d_size = cert.d_mask.bit_count()

    checks = []
    checks.append(
        CheckResult("t_in_source", (cert.t_mask & ~cert.source_mask) == 0,
                    float((cert.t_mask & ~cert.source_mask).bit_count()))
    )
    checks.append(CheckResult("t_size", t_size <= n / p + COMPARE_EPS, n / p - t_size))
    checks.append(
        CheckResult("source_in_d", (cert.source_mask & ~cert.d_mask) == 0,
                    float((cert.source_mask & ~cert.d_mask).bit_count()))
    )
    d_bound = n * d / (2 * d - p)
    checks.append(CheckResult("d_size", d_size <= d_bound + COMPARE_EPS, d_bound - d_size))
    checks.append(
        CheckResult("d_avoids_nt", (cert.d_mask & nt) == 0, float((cert.d_mask & nt).bit_count()))
    )
    small_outside = True
    worst = math.inf
    for v in vertices_of(cert.d_mask):
        outside = (g.rows[v] & ~nt).bit_count()
        worst = min(worst, p - outside)
        if outside >= p - COMPARE_EPS:
            small_outside = False
    checks.append(
        CheckResult("d_members_small_outside", small_outside, 0.0 if math.isinf(worst) else worst)
    )
    edges_d_nt = sum((g.rows[v] & nt).bit_count() for v in vertices_of(cert.d_mask))
    lower = (d - p) * d_size
    upper = d * (n - d_size)
    checks.append(CheckResult("edge_count_lower", edges_d_nt >= lower - COMPARE_EPS, edges_d_nt - lower))
    checks.append(CheckResult("edge_count_upper", edges_d_nt <= upper + COMPARE_EPS, upper - edges_d_nt))
    return CertificateReport(tuple(checks), all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# Per-coloring container profiles and the compatible-partition bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DProfile:
    """Container list (D_1..D_q) with, for every vertex v, the multiplicity
    a_v = #{k : v in D_k}; `product` is the exact number of ordered vertex
    partitions (I_1..I_q) with I_k contained in D_k."""

    d_sets: tuple[int, ...]
    multiplicities: tuple[int, ...]
    product: int
    total: int

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


def container_size_cap(n: int, d: int, phi_value: float) -> int:
    """Largest integer container size allowed by |D| <= n*d/(2d - phi)."""
    return min(n, math.floor(n * d / (2 * d - phi_value) + COMPARE_EPS))


def d_profile(g: Graph, coloring: Sequence[int], q: int, phi_value: float) -> DProfile:
    """Containers of the color classes of a proper coloring (values 1..q).
    An empty class gets the deterministic completion: the first
    container_size_cap(n, d, phi) vertices."""
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
    completion = (1 << container_size_cap(n, d, phi_value)) - 1
    d_sets = []
    for k in range(1, q + 1):
        class_mask = 0
        for v in range(n):
            if coloring[v] == k:
                class_mask |= 1 << v
        if class_mask:
            d_sets.append(build_certificate(g, class_mask, phi_value).d_mask)
        else:
            d_sets.append(completion)
    return _profile_from_sets(n, d_sets)


def compatible_count(profile: DProfile) -> int:
    """Exact number of ordered partitions compatible with the containers:
    the product of the multiplicities."""
    return profile.product


def refined_bound(g: Graph, profile: DProfile, q: int) -> Fraction:
    """Upper bound on proper colorings compatible with the profile: choose a
    container of size >= n/2 (padding the largest one deterministically with
    the smallest missing vertices if none qualifies), take the greedy maximal
    matching M of the induced subgraph, and return
    (prod a_v) * (1 - 1/q^2)^|M| exactly."""
    if q < 2:
        raise InvalidParameterError("q must be at least 2")
    n = g.n
    half = (n + 1) // 2
    sizes = [dk.bit_count() for dk in profile.d_sets]
    k = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
    chosen = profile.d_sets[k]
    if sizes[k] < half:
        for v in range(n):
            if chosen.bit_count() >= half:
                break
            chosen |= 1 << v
        padded = list(profile.d_sets)
        padded[k] = chosen
        profile = _profile_from_sets(n, padded)
    matching = greedy_maximal_matching(induced_subgraph(g, chosen))
    return Fraction(profile.product) * Fraction(q * q - 1, q * q) ** len(matching)


# ---------------------------------------------------------------------------
# Forbidden-interval product lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaBound:
    bound: float        # (a^2 - delta^2)^(m/2)
    holds: bool         # prod a_i <= bound, decided exactly via squares
    equality: bool
    degenerate: bool    # a <= delta


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


def _sqrt_upper(x: Fraction) -> Fraction:
    # rational upper bound on sqrt(x) for x >= 0
    num, den = x.numerator, x.denominator
    r = math.isqrt(num)
    if r * r < num:
        r += 1
    s = math.isqrt(den)  # floor: shrinking the denominator only enlarges
    return Fraction(r, max(s, 1))


def explicit_weak_bound(n: int, d: int, q: int, eps=None) -> Fraction:
    """Fully explicit upper bound on the number of proper q-colorings of any
    n-vertex d-regular graph (with eps given: of any such graph whose largest
    independent set has at most (n/2)(1-eps) vertices).

    The bound is
        [sum_{i <= floor(n/phi)} C(n,i)]^q  *  B  *  (1 - 1/q^2)^ceil(n*eps/4)
    with S = min(q*n, q*ceil(n*d/(2d-phi))) and B = (S/n)^n for even q; for
    odd q the multiplicities are integers whose mean lies between q/2 and
    S/n, so B tightens to ((S/n)^2 - delta^2)^(n/2) with
    delta = (1/2)(1 - sqrt(log2(d)/d)) clamped into the range where the
    integer gap argument stays valid.  The returned Fraction is an exact
    certified upper bound (irrational intermediates are rounded upward).
    """
    if d < 2:
        raise InvalidParameterError("d must be at least 2")
    if n < d + 1:
        raise InvalidParameterError("n must be at least d+1")
    if q < 3:
        raise InvalidParameterError("q must be at least 3")
    eps_frac = None if eps is None else _eps_fraction(eps)

    p = phi(d, q)
    i_cap = min(n, math.floor(n / p + COMPARE_EPS))
    binsum = _binomial_sum(n, i_cap)

    size_cap = math.ceil(n * d / (2 * d - p) - COMPARE_EPS)
    s_total = min(q * n, q * size_cap)
    a = Fraction(s_total, n)

    if q % 2 == 0:
        b_factor = a ** n
    else:
        delta = 0.5 * (1.0 - math.sqrt(math.log2(d) / d))
        # the no-integer-in-(mean-delta, mean+delta) argument needs the mean
        # to stay at least delta away from ceil(q/2); shrink delta to keep it
        room = Fraction((q + 1) // 2) - a
        delta_r = Fraction(math.floor(max(delta, 0.0) * 10**12), 10**12)
        delta_r = max(Fraction(0), min(delta_r, room))
        base = a * a - delta_r * delta_r
        if n % 2 == 0:
            b_factor = base ** (n // 2)
        else:
            b_factor = _sqrt_upper(base ** n)

    out = Fraction(binsum) ** q * b_factor
    if eps_frac is not None and eps_frac > 0:
        exponent = math.ceil(Fraction(n) * eps_frac / 4)
        out *= Fraction(q * q - 1, q * q) ** exponent
    return out
