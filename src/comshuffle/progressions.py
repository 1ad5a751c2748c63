"""Arithmetic-progression algebra over a single letter.

A progression (k, p) denotes the set {k, k+p, k+2p, ...}.  Intersections go
through the generalized Chinese Remainder Theorem, products (unary
concatenation / shuffle) through the two-generator numerical semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class Progression:
    offset: int
    period: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be non-negative")
        if self.period < 1:
            raise ValueError("period must be positive")

    def __contains__(self, n: int) -> bool:
        return n >= self.offset and (n - self.offset) % self.period == 0

    def contains_progression(self, other: "Progression") -> bool:
        # other ⊆ self iff other.offset ∈ self and self.period | other.period
        return (
            other.offset >= self.offset
            and other.period % self.period == 0
            and (other.offset - self.offset) % self.period == 0
        )


@dataclass(frozen=True)
class CongruenceSystem:
    """Congruences x ≡ r_i (mod m_i) with 0 ≤ r_i < m_i."""

    congruences: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.congruences:
            raise ValueError("system must be non-empty")
        for r, m in self.congruences:
            if m < 1:
                raise ValueError("modulus must be positive")
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")


def _merge(r1: int, m1: int, r2: int, m2: int) -> Optional[tuple[int, int]]:
    """Combine x≡r1 (mod m1) and x≡r2 (mod m2) into one congruence, or None."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    lcm = m1 // g * m2
    step = m2 // g
    t = ((r2 - r1) // g * pow(m1 // g, -1, step)) % step
    return (r1 + t * m1) % lcm, lcm


def crt_solve(system: CongruenceSystem) -> Optional[tuple[int, int]]:
    """Unique (r, lcm) solving the whole system, or None if unsolvable."""
    r, m = system.congruences[0]
    for r2, m2 in system.congruences[1:]:
        merged = _merge(r, m, r2, m2)
        if merged is None:
            return None
        r, m = merged
    return r, m


def prog_intersect(p1: Progression, p2: Progression) -> Optional[Progression]:
    """Intersection of two progressions; None when empty."""
    solved = crt_solve(
        CongruenceSystem(((p1.offset % p1.period, p1.period), (p2.offset % p2.period, p2.period)))
    )
    if solved is None:
        return None
    r, m = solved
    base = max(p1.offset, p2.offset)
    return Progression(base + (r - base) % m, m)


def _semigroup_elements(a: int, b: int, limit: int) -> list[int]:
    """Elements of the numerical semigroup <a, b> below `limit`."""
    reachable = [False] * max(limit, 1)
    if limit > 0:
        reachable[0] = True
        for n in range(1, limit):
            reachable[n] = (n >= a and reachable[n - a]) or (n >= b and reachable[n - b])
    return [n for n in range(limit) if reachable[n]]


def normalize_progressions(progs: Sequence[Progression]) -> tuple[Progression, ...]:
    """Drop progressions contained in another one; sorted, deduplicated."""
    unique = sorted(set(progs), key=lambda p: (p.offset, p.period))
    # distinct progressions denote distinct sets, so containment is antisymmetric here
    return tuple(p for p in unique if not any(q != p and q.contains_progression(p) for q in unique))


def prog_product(p1: Progression, p2: Progression) -> tuple[Progression, ...]:
    """Decompose the sumset {k1+k2 + x*p1 + y*p2 : x, y >= 0} into progressions.

    With g = gcd(p1, p2), the attainable shifts are g * <p1/g, p2/g>.  The
    two-generator semigroup has conductor c = (p1/g - 1)(p2/g - 1); sporadic
    elements below it keep the finer period p1, the tail collapses to period g.
    The Sylvester closed form for c is cross-checked against DP enumeration in
    the tests rather than trusted.
    """
    k = p1.offset + p2.offset
    g = math.gcd(p1.period, p2.period)
    a, b = p1.period // g, p2.period // g
    conductor = 0 if a == 1 or b == 1 else (a - 1) * (b - 1)
    result = [Progression(k + e * g, p1.period) for e in _semigroup_elements(a, b, conductor)]
    result.append(Progression(k + conductor * g, g))
    return normalize_progressions(result)
