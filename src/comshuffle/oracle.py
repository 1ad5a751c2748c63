"""Brute-force ground truth on Parikh vectors.

Every symbolic construction in the library is cross-checked against these
enumerations in the test suite.  Oracles work on count vectors, not words,
except for `word_language` which bridges to automata tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional

from .dpl import DplUnion, dpl_union_member
from .errors import SizeGuardError
from .words import Alphabet, ParikhVector, parikh

CLOSURE_MAX_BOUND = 60
WORD_MAX_BOUND = 10


@dataclass(frozen=True)
class VectorSet:
    """Finite window onto a set of Parikh vectors: exact up to coordinate-sum `bound`."""

    alphabet: Alphabet
    vectors: frozenset[ParikhVector]
    bound: int

    def __post_init__(self):
        if any(v.total() > self.bound for v in self.vectors):
            raise ValueError("vector exceeds the declared bound")


def all_vectors(alphabet: Alphabet, bound: int) -> Iterable[ParikhVector]:
    """Every vector with coordinate sum <= bound."""
    k = len(alphabet)
    if k == 0:
        yield ParikhVector(alphabet, ())
        return
    for counts in product(range(bound + 1), repeat=k):
        if sum(counts) <= bound:
            yield ParikhVector(alphabet, counts)


def closure_under_addition(base: VectorSet, bound: int) -> VectorSet:
    """Smallest superset of {0} ∪ base closed under pairwise addition, within bound.

    This is the Parikh-image semantics of the iterated shuffle of a
    commutative language.
    """
    if bound > CLOSURE_MAX_BOUND:
        raise SizeGuardError.over("closure bound", "closure_bound", CLOSURE_MAX_BOUND, bound)
    zero = ParikhVector.zero(base.alphabet)
    gens = [v for v in base.vectors if v.total() <= bound and v != zero]
    reached = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            if w.total() <= bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return VectorSet(base.alphabet, frozenset(reached), bound)


def vector_sums(x: VectorSet, y: VectorSet, bound: int) -> VectorSet:
    """Pairwise sums within bound: the Parikh semantics of the binary shuffle."""
    sums = {
        a + b for a in x.vectors for b in y.vectors if (a + b).total() <= bound
    }
    return VectorSet(x.alphabet, frozenset(sums), bound)


def dpl_enumerate(u: DplUnion, bound: int) -> VectorSet:
    return predicate_enumerate(lambda v: dpl_union_member(v, u), u.alphabet, bound)


def predicate_enumerate(
    member: Callable[[ParikhVector], bool], alphabet: Alphabet, bound: int
) -> VectorSet:
    if bound > CLOSURE_MAX_BOUND:
        raise SizeGuardError.over("enumeration", "enumeration_bound", CLOSURE_MAX_BOUND, bound)
    vs = frozenset(v for v in all_vectors(alphabet, bound) if member(v))
    return VectorSet(alphabet, vs, bound)


def sets_equal(x: VectorSet, y: VectorSet) -> tuple[bool, Optional[ParikhVector]]:
    """Set equality plus a minimal (sum, then lexicographic) counterexample."""
    if x.alphabet != y.alphabet or x.bound != y.bound:
        raise ValueError("vector sets must share alphabet and bound")
    diff = x.vectors ^ y.vectors
    if not diff:
        return True, None
    return False, min(diff, key=lambda v: (v.total(), v.counts))


def word_language(
    member: Callable[[ParikhVector], bool], alphabet: Alphabet, bound: int
) -> tuple[str, ...]:
    """All words of length <= bound whose Parikh vector is accepted.

    Commutative semantics: membership depends only on the count vector.
    """
    if bound > WORD_MAX_BOUND:
        raise SizeGuardError.over("word bound", "word_bound", WORD_MAX_BOUND, bound)
    out = []
    for n in range(bound + 1):
        for tup in product(alphabet.letters, repeat=n):
            w = "".join(tup)
            if member(parikh(w, alphabet)):
                out.append(w)
    return tuple(out)
