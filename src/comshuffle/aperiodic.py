"""Star-free commutative languages.

The normal form here is a finite union of terms perm(u) ⧢ Γ*: a fixed
multiset of letters plus arbitrarily many letters from a tail alphabet.  Such
a term is the diagonal periodic term whose tail letters have period-one
progressions from offset u_a and whose other letters have the exact count
u_a, so these unions are `DplUnion`s.  Interval letter-count constraints
expand into this form, and the iterated shuffle is handled by sufficient
criteria: per term via the unary-or-tail condition, and for whole unions via
a subset-expansion with absorption of the problematic pieces into
well-behaved ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .dpl import (
    DiagonalPeriodic,
    DplUnion,
    dpl_project,
    dpl_shuffle,
    dpl_union,
    dpl_union_from_dict,
    dpl_union_member,
    dpl_union_to_dict,
)
from .errors import CriterionError, SizeGuardError, UndecidedError
from .progressions import Progression
from .regularity import FiniteLang, build_representation, decide_finite, shift_representation
from .words import Alphabet, ParikhVector, word_of

UNION_CLOSURE_MAX_TERMS = 8
UNION_VERIFY_BOUND = 12
M_SEARCH_CAP = 40
PERIOD_LCM_CAP = 24
THRESHOLD_ITER_CAP = 8

# Earlier names of the dpl membership test and parser, still imported by
# bench/workloads.py.
union_member = dpl_union_member
aperiodic_union_from_dict = dpl_union_from_dict


@dataclass(frozen=True)
class IntervalConstraint:
    """lower <= |u|_a < upper; upper None means unbounded."""

    letter: str
    lower: int
    upper: Optional[int]

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be non-negative")
        if self.upper is not None and self.lower >= self.upper:
            raise ValueError("interval requires lower < upper")


def interval_intersect(c1: IntervalConstraint, c2: IntervalConstraint) -> Optional[IntervalConstraint]:
    if c1.letter != c2.letter:
        raise ValueError("constraints must concern the same letter")
    lower = max(c1.lower, c2.lower)
    uppers = [u for u in (c1.upper, c2.upper) if u is not None]
    upper = min(uppers) if uppers else None
    if upper is not None and lower >= upper:
        return None
    return IntervalConstraint(c1.letter, lower, upper)


def _base_tail(t: DiagonalPeriodic) -> tuple[tuple[int, ...], frozenset[str]]:
    """(counts of u, Γ) of a term perm(u) ⧢ Γ*; CriterionError if a period is
    not one."""
    counts = dict(t.exact)
    for a, p in t.progs:
        if p.period != 1:
            raise CriterionError(
                f"letter {a!r} has period {p.period}: a perm(u) ⧢ Γ* term needs period one",
                letter=a,
            )
        counts[a] = p.offset
    return tuple(counts.get(a, 0) for a in t.alphabet), t.support


def intervals_to_terms(
    constraints: Sequence[IntervalConstraint], alphabet: Alphabet
) -> DplUnion:
    """Expand a conjunction of interval constraints (at most one per letter)
    into a union of perm(u) ⧢ Γ* terms."""
    by_letter = {}
    for c in constraints:
        if c.letter not in alphabet:
            raise ValueError(f"letter {c.letter!r} outside alphabet")
        if c.letter in by_letter:
            raise ValueError(f"multiple constraints for letter {c.letter!r}; merge them first")
        by_letter[c.letter] = c
    tail = frozenset(
        a for a in alphabet if a not in by_letter or by_letter[a].upper is None
    )
    choices = []
    for a in alphabet:
        c = by_letter.get(a)
        if c is None:
            choices.append([0])
        elif c.upper is None:
            choices.append([c.lower])
        else:
            choices.append(list(range(c.lower, c.upper)))
    terms = [
        DiagonalPeriodic.perm_shuffle(ParikhVector(alphabet, counts), tail)
        for counts in product(*choices)
    ]
    return DplUnion.of(alphabet, terms)


# Kept as delegating functions, not aliases, because bench/tracing.py traces
# them by function object under the aperiodic and serialization layers.
def union_project(u: DplUnion, keep: Iterable[str]) -> DplUnion:
    return dpl_project(u, keep)


def union_shuffle(u1: DplUnion, u2: DplUnion) -> DplUnion:
    return dpl_shuffle(u1, u2)


def aperiodic_union_to_dict(u: DplUnion) -> dict:
    return dpl_union_to_dict(u)


def term_iterated_shuffle_regular(t: DiagonalPeriodic) -> bool:
    """Shuffle closure of perm(u) ⧢ Γ* is regular iff u is unary or u uses
    only tail letters."""
    base, tail = _base_tail(t)
    support = {a for a, n in zip(t.alphabet, base) if n}
    return len(support) <= 1 or support <= tail


def _piece_lang(alphabet: Alphabet, pieces) -> FiniteLang:
    """For (u, Γ) pairs, the finite language whose iterated shuffle, shifted by
    the sum of the u, is the part of the closure that uses every pair: the
    letters of the tails plus the words u."""
    tails = frozenset().union(*(tail for _, tail in pieces))
    words = [a for a in alphabet if a in tails] + [word_of(base) for base, _ in pieces]
    return FiniteLang.of(alphabet, [w for w in words if w])


def term_iterated_shuffle_normal_form(t: DiagonalPeriodic) -> DplUnion:
    """Closure of one term as a union of diagonal periodic languages:
    {ε} ∪ perm(u⁺) ⧢ (shuffle of a* over the tail)."""
    counts, tail = _base_tail(t)
    base = ParikhVector(t.alphabet, counts)
    if not term_iterated_shuffle_regular(t):
        offending = next(a for a in t.alphabet if a in base.support() and a not in tail)
        raise CriterionError(
            f"iterated shuffle criterion fails: base uses several letters and "
            f"letter {offending!r} is outside the tail",
            letter=offending,
        )
    rep = build_representation(_piece_lang(t.alphabet, [(base, tail)]))
    shifted = shift_representation(rep, base)
    return dpl_union(DplUnion.epsilon(t.alphabet), shifted)


# --- iterated shuffle of whole unions -------------------------------------


def union_closure_member(v: ParikhVector, u: DplUnion) -> bool:
    """Exact membership in the iterated shuffle of a union of perm(u) ⧢ Γ*
    terms, by exhaustive search: pick a non-empty subset of terms, use each
    base at least once, and leave a remainder supported on the union of the
    chosen tails."""
    if v.alphabet != u.alphabet:
        raise ValueError("alphabet mismatch")
    if v.total() == 0:
        return True
    k = len(u.alphabet)
    pieces = [
        (base, tuple(a in tail for a in u.alphabet))
        for base, tail in map(_base_tail, u.terms)
    ]
    for r in range(1, len(pieces) + 1):
        for subset in combinations(pieces, r):
            gens = [base for base, _ in subset if any(base)]
            rem = list(v.counts)
            for g in gens:
                rem = [x - y for x, y in zip(rem, g)]
            if any(x < 0 for x in rem):
                continue
            free = tuple(map(any, zip(*(tail for _, tail in subset))))
            memo: dict[tuple[int, ...], bool] = {}

            def fits(w: tuple[int, ...]) -> bool:
                if all(w[i] == 0 or free[i] for i in range(k)):
                    return True
                cached = memo.get(w)
                if cached is not None:
                    return cached
                memo[w] = False
                ok = any(
                    fits(tuple(x - y for x, y in zip(w, g)))
                    for g in gens
                    if all(x >= y for x, y in zip(w, g))
                )
                memo[w] = ok
                return ok

            if fits(tuple(rem)):
                return True
    return False


def _scaled_sum(alphabet: Alphabet, coeffs, gens) -> tuple[int, ...]:
    return tuple(
        sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(alphabet))
    )


def _class_minima(threshold: int, residues, period: int) -> tuple[int, ...]:
    """Per coordinate: the smallest c >= max(threshold, 1) with c ≡ ρ (mod period)."""
    out = []
    for rho in residues:
        lo = max(threshold, 1)
        out.append(lo + (rho - lo) % period)
    return tuple(out)


def _absorb_candidates(periodic: DplUnion, gamma: frozenset[str]):
    """The terms that can absorb families with free letters Γ (period one on
    every letter of Γ), each as its (index, count) fixed letters and its
    (index, progression) letters."""
    out = []
    for t in periodic.terms:
        sets = list(enumerate(t.count_sets()))
        if all(
            isinstance(s, Progression) and s.period == 1
            for i, s in sets
            if periodic.alphabet.letters[i] in gamma
        ):
            fixed = tuple((i, s) for i, s in sets if not isinstance(s, Progression))
            progs = tuple((i, s) for i, s in sets if isinstance(s, Progression))
            out.append((fixed, progs))
    return out


def _absorb_threshold(
    alphabet: Alphabet,
    candidates,
    w_low: tuple[int, ...],
    gens,
    residues,
    period: int,
) -> Optional[int]:
    """Smallest threshold M so that the residue-class family
    { w_low + Σ c_j g_j + Γ-tails : c_j >= M, c_j ≡ ρ_j (mod period) }
    sits inside one diagonal periodic term among `_absorb_candidates`.

    Once the family's least element lies in a term, every other element is
    reached from it by period-multiple generator steps and tail letters, both
    of which preserve term membership, so the single check certifies the
    whole family.
    """
    for fixed, progs in candidates:
        # a letter with an exact count must sit at that count and stay there
        if any(w_low[i] != c or any(g[i] for g in gens) for i, c in fixed):
            continue
        for m in range(1, M_SEARCH_CAP + 1):
            minima = _class_minima(m, residues, period)
            base = tuple(
                x + y for x, y in zip(w_low, _scaled_sum(alphabet, minima, gens))
            )
            if all(base[i] in p for i, p in progs):
                return m
    return None


def union_iterated_shuffle(
    u: DplUnion, verify_bound: int = UNION_VERIFY_BOUND
) -> DplUnion:
    """Iterated shuffle of a union of perm(u) ⧢ Γ* terms.

    The closure expands into one piece per non-empty subset of terms.  Pieces
    whose letters all have unary words convert exactly to dpl form.  A failing
    piece is split at a threshold M: coefficient vectors below M become
    explicit exceptional terms, and each high-coefficient residue class is
    either absorbed into a periodic term of the passing part or kept as a
    merged perm(u) ⧢ Γ* term covering it.  The result is the union of the
    periodic and exceptional terms.  It is verified against exhaustive
    closure membership up to `verify_bound`; any disagreement means the
    sufficient criteria did not apply and the computation reports undecided.
    """
    if len(u.terms) > UNION_CLOSURE_MAX_TERMS:
        raise SizeGuardError(
            f"union closure limited to {UNION_CLOSURE_MAX_TERMS} terms, got {len(u.terms)}"
        )
    alphabet = u.alphabet
    pieces = [(ParikhVector(alphabet, base), tail) for base, tail in map(_base_tail, u.terms)]
    idx = range(len(pieces))
    subsets = [s for r in idx for s in combinations(idx, r + 1)]

    periodic = DplUnion.epsilon(alphabet)
    failing: list[tuple[frozenset[str], tuple[int, ...]]] = []
    for subset in subsets:
        chosen = [pieces[j] for j in subset]
        lang = _piece_lang(alphabet, chosen)
        gamma = frozenset().union(*(tail for _, tail in chosen))
        if decide_finite(lang).regular:
            base = sum((b for b, _ in chosen), ParikhVector.zero(alphabet))
            piece = shift_representation(build_representation(lang), base)
            periodic = dpl_union(periodic, piece)
        else:
            failing.append((gamma, subset))

    period = 1
    for t in periodic.terms:
        for _, p in t.progs:
            period = math.lcm(period, p.period)
    if period > PERIOD_LCM_CAP:
        raise UndecidedError(
            f"combined period {period} exceeds the absorption cap {PERIOD_LCM_CAP}"
        )

    exceptional: list[DiagonalPeriodic] = []
    for gamma_a, subset in failing:
        active = [j for j in subset if pieces[j][0].total() > 0]
        gens_all = [pieces[j][0].counts for j in active]
        supports = [pieces[j][0].support() for j in active]
        candidates = _absorb_candidates(periodic, gamma_a)

        def sweep(threshold: int, collect: Optional[list[DiagonalPeriodic]]) -> int:
            needed = 1
            for r in range(1, len(active) + 1):
                for high in combinations(range(len(active)), r):
                    low = [i for i in range(len(active)) if i not in high]
                    gens = [gens_all[i] for i in high]
                    for low_c in product(range(1, threshold), repeat=len(low)):
                        w_low = _scaled_sum(
                            alphabet, low_c, [gens_all[i] for i in low]
                        )
                        for residues in product(range(period), repeat=r):
                            m = _absorb_threshold(
                                alphabet, candidates, w_low, gens, residues, period
                            )
                            if m is not None:
                                needed = max(needed, m)
                            elif collect is not None:
                                tail = frozenset(gamma_a).union(
                                    *(supports[i] for i in high)
                                )
                                minima = _class_minima(1, residues, period)
                                base = tuple(
                                    x + y
                                    for x, y in zip(
                                        w_low, _scaled_sum(alphabet, minima, gens)
                                    )
                                )
                                collect.append(
                                    DiagonalPeriodic.perm_shuffle(
                                        ParikhVector(alphabet, base), tail
                                    )
                                )
            return needed

        threshold = 1
        for _ in range(THRESHOLD_ITER_CAP):
            needed = sweep(threshold, None)
            if needed <= threshold:
                break
            threshold = needed
        else:
            raise UndecidedError("absorption threshold failed to stabilize")
        sweep(threshold, exceptional)
        for coeffs in product(range(1, threshold), repeat=len(active)):
            counts = _scaled_sum(alphabet, coeffs, gens_all)
            exceptional.append(
                DiagonalPeriodic.perm_shuffle(ParikhVector(alphabet, counts), gamma_a)
            )

    closure = DplUnion.of(alphabet, periodic.terms + tuple(exceptional))
    for counts in product(range(verify_bound + 1), repeat=len(alphabet)):
        if sum(counts) > verify_bound:
            continue
        v = ParikhVector(alphabet, counts)
        if dpl_union_member(v, closure) != union_closure_member(v, u):
            raise UndecidedError(
                "iterated shuffle of this union is undecided by implemented criteria: "
                f"assembled normal form disagrees with exhaustive membership at {v.as_dict()}"
            )
    return closure
