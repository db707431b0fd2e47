"""Closed forms for colorings of the complete bipartite graph K_{d,d}.

A coloring of K_{d,d} is determined by the disjoint nonempty color sets A
(colors seen on one side) and B (colors seen on the other); the class for a
size pair (a, b) holds C(q,a)*C(q-a,b) ordered pairs, each of exact size
Surj(d,a)*Surj(d,b).  The dominant classes maximize the product a*b.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidParameterError


def eta(q: int) -> int:
    """floor(q/2) * ceil(q/2): q^2/4 for even q, (q^2-1)/4 for odd q."""
    if q < 1:
        raise InvalidParameterError("q must be at least 1")
    return (q // 2) * ((q + 1) // 2)


def m_count(q: int) -> int:
    """Number of ordered color-set pairs attaining the dominant product:
    C(q, q/2) for even q and C(q+1, (q+1)/2) for odd q."""
    if q < 1:
        raise InvalidParameterError("q must be at least 1")
    if q % 2 == 0:
        return comb(q, q // 2)
    return comb(q + 1, (q + 1) // 2)


def surjections(n: int, k: int) -> int:
    """Number of onto maps from an n-set to a k-set, by inclusion-exclusion:
    sum_i (-1)^i C(k,i) (k-i)^n."""
    if n < 0 or k < 0:
        raise InvalidParameterError("n and k must be non-negative")
    total = 0
    for i in range(k + 1):
        term = comb(k, i) * (k - i) ** n
        total += -term if i % 2 else term
    return total


def count_colorings_kdd(d: int, q: int) -> int:
    """Exact number of proper q-colorings of K_{d,d}:
    sum_{a=1}^{min(d,q)} C(q,a) * Surj(d,a) * (q-a)^d, since Surj(d,a) = 0
    for a > d."""
    if d < 1:
        raise InvalidParameterError("d must be at least 1")
    if q < 0:
        raise InvalidParameterError("q must be non-negative")
    return sum(comb(q, a) * surjections(d, a) * (q - a) ** d for a in range(1, min(d, q) + 1))


@dataclass(frozen=True)
class PairClass:
    a: int
    b: int
    pairs: int       # ordered pairs (A,B) with |A|=a, |B|=b
    product: int     # a*b
    class_size: int  # colorings per pair: Surj(d,a)*Surj(d,b)


@dataclass(frozen=True)
class ColorPairCensus:
    d: int
    q: int
    entries: tuple[PairClass, ...]

    @property
    def total(self) -> int:
        return sum(e.pairs * e.class_size for e in self.entries)

    @property
    def pair_total(self) -> int:
        return sum(e.pairs for e in self.entries)

    @property
    def max_product(self) -> int:
        return max((e.product for e in self.entries), default=0)

    @property
    def dominant_pairs(self) -> int:
        top = self.max_product
        return sum(e.pairs for e in self.entries if e.product == top)


def pair_census(d: int, q: int) -> ColorPairCensus:
    """Census over ordered size pairs (a,b), a,b >= 1, a+b <= q, indexed by
    sizes with multiplicities instead of materialized subsets."""
    if d < 1 or q < 1:
        raise InvalidParameterError("d and q must be at least 1")
    entries = []
    for a in range(1, q):
        for b in range(1, q - a + 1):
            entries.append(
                PairClass(
                    a=a,
                    b=b,
                    pairs=comb(q, a) * comb(q - a, b),
                    product=a * b,
                    class_size=surjections(d, a) * surjections(d, b),
                )
            )
    return ColorPairCensus(d, q, tuple(entries))


@dataclass(frozen=True)
class GapReport:
    d: int
    q: int
    colorings: int       # c_q(K_{d,d})
    dominant_term: int   # eta^d * m
    gap: int             # |colorings - dominant_term|
    ratio: Fraction      # colorings / dominant_term, exact


def asymptotic_gap(d: int, q: int) -> GapReport:
    """Exact ratio c_q(K_{d,d}) / (eta^d * m) together with the absolute gap."""
    if d < 1:
        raise InvalidParameterError("d must be at least 1")
    if q < 2:
        raise InvalidParameterError("q must be at least 2 (eta vanishes below)")
    c = count_colorings_kdd(d, q)
    dom = eta(q) ** d * m_count(q)
    return GapReport(d, q, c, dom, abs(c - dom), Fraction(c, dom))
