"""Arithmetic-progression algebra over a single letter.

A progression (k, p) denotes the set {k, k+p, k+2p, ...}.  Intersections go
through the generalized Chinese Remainder Theorem, products (unary
concatenation / shuffle) through the two-generator numerical semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence


class Progression(tuple):
    """The count set {offset + period·n : n >= 0}, with offset >= 0 and
    period >= 1.

    A progression is the pair (offset, period), not a general tuple: it
    hashes and compares as that pair, in C, so two progressions are equal
    exactly when they denote the same set, and they order by offset, then
    period.  `n in p` is count membership, not a test on the pair's items,
    and tuple concatenation and repetition are refused.  Hot code unpacks
    the pair (`k, p = prog`), which is cheaper than reading the `offset`
    and `period` properties.
    """

    __slots__ = ()

    def __new__(cls, offset: int, period: int) -> "Progression":
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if period < 1:
            raise ValueError("period must be positive")
        return tuple.__new__(cls, (offset, period))

    offset = property(itemgetter(0), doc="The least count.")
    period = property(itemgetter(1), doc="The step between counts.")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Progression(offset={self[0]!r}, period={self[1]!r})"

    def _refuse(self, other):
        raise TypeError(f"unsupported operand for a progression: {type(other).__name__!r}")

    __add__ = __radd__ = __mul__ = __rmul__ = _refuse

    def __contains__(self, n: int) -> bool:
        k, p = self
        return n >= k and (n - k) % p == 0

    def contains_progression(self, other: "Progression") -> bool:
        # other ⊆ self iff other.offset ∈ self and self.period | other.period
        k, p = self
        k2, p2 = other
        return k2 >= k and p2 % p == 0 and (k2 - k) % p == 0


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
    """Combine x≡r1 (mod m1) and x≡r2 (mod m2), for any integers r1 and r2,
    into one congruence (r, lcm) with 0 <= r < lcm, or None."""
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
    """Intersection of two progressions; None when empty.

    Counts in both are congruent to each offset modulo its period: one
    `_merge` of the two congruences gives them as r + m·N, and the least one
    from the larger offset on starts the result.
    """
    (k1, m1), (k2, m2) = p1, p2
    solved = _merge(k1, m1, k2, m2)
    if solved is None:
        return None
    r, m = solved
    base = max(k1, k2)
    return Progression(base + (r - base) % m, m)


def semigroup_elements(gens: Sequence[int], limit: int) -> list[int]:
    """Elements of the numerical semigroup generated by `gens` below `limit`."""
    reachable = [False] * max(limit, 1)
    if limit > 0:
        reachable[0] = True
        for n in range(1, limit):
            reachable[n] = any(n >= g and reachable[n - g] for g in gens)
    return [n for n in range(limit) if reachable[n]]


def normalize_progressions(progs: Sequence[Progression]) -> tuple[Progression, ...]:
    """Drop progressions contained in another one; sorted, deduplicated."""
    unique = sorted(set(progs))  # by offset, then period
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
    (k1, m1), (k2, m2) = p1, p2
    k = k1 + k2
    g = math.gcd(m1, m2)
    a, b = m1 // g, m2 // g
    conductor = 0 if a == 1 or b == 1 else (a - 1) * (b - 1)
    result = [Progression(k + e * g, m1) for e in semigroup_elements((a, b), conductor)]
    result.append(Progression(k + conductor * g, g))
    return normalize_progressions(result)
