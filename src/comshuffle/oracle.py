"""Brute-force ground truth on Parikh vectors.

Every symbolic construction in the library is cross-checked against these
enumerations, in the test suite and by `check`.  Oracles work on count
vectors, not words, except for `word_language` which bridges to automata
tests: it asks its predicate once per count vector and lists every
arrangement of each accepted one.

Two kernels do the arithmetic on plain count tuples: `count_closure` (the
closure under addition, each frontier entry carrying its coordinate sum) and
`count_sums` (pairwise sums).  They, and `count_tuples`, take and return
count tuples; `cli.oracle_set` builds its whole semantics on them.  The
other public functions (`closure_under_addition` and `vector_sums`, which
wrap the kernels, `dpl_enumerate`, `predicate_enumerate` and `sets_equal`)
take and return `VectorSet`s of `ParikhVector`s, each built once per vector
of a returned window.  Union membership is tested count by count with
`dpl.in_count_set`; no symbolic construction of `dpl`, `aperiodic` or
`regularity` is used.  Each enumeration sits behind a bound guard
(`closure_bound`, `enumeration_bound`, `word_bound`), and every listing of
count tuples behind a guard on their number (`enumeration_vectors`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Iterator, Optional

from .dpl import DplUnion, in_count_set
from .errors import SizeGuardError
from .words import Alphabet, ParikhVector

CLOSURE_MAX_BOUND = 60
WORD_MAX_BOUND = 10
ENUMERATION_MAX_VECTORS = 250_000

Counts = tuple[int, ...]


@dataclass(frozen=True)
class VectorSet:
    """Finite window onto a set of Parikh vectors: exact up to coordinate-sum `bound`."""

    alphabet: Alphabet
    vectors: frozenset[ParikhVector]
    bound: int

    def __post_init__(self):
        if any(v.total() > self.bound for v in self.vectors):
            raise ValueError("vector exceeds the declared bound")


def _window(alphabet: Alphabet, counts: Iterable[Counts], bound: int) -> VectorSet:
    return VectorSet(alphabet, frozenset(ParikhVector(alphabet, c) for c in counts), bound)


def count_tuples(k: int, bound: int) -> list[Counts]:
    """Every k-tuple of counts with sum <= bound, in lexicographic order;
    there are C(bound + k, k) of them."""
    if (size := math.comb(max(bound, 0) + k, k)) > ENUMERATION_MAX_VECTORS:
        raise SizeGuardError.over(
            "enumeration size", "enumeration_vectors", ENUMERATION_MAX_VECTORS, size
        )
    tuples: list[Counts] = [()]
    for _ in range(k):
        tuples = [t + (n,) for t in tuples for n in range(bound - sum(t) + 1)]
    return tuples


def all_vectors(alphabet: Alphabet, bound: int) -> Iterator[ParikhVector]:
    """Every vector with coordinate sum <= bound."""
    for counts in count_tuples(len(alphabet), bound):
        yield ParikhVector(alphabet, counts)


def count_closure(gens: Iterable[Counts], k: int, bound: int) -> frozenset[Counts]:
    """Smallest superset of {0} ∪ gens closed under pairwise addition, within
    bound, on k-tuples of counts."""
    if bound > CLOSURE_MAX_BOUND:
        raise SizeGuardError.over("closure bound", "closure_bound", CLOSURE_MAX_BOUND, bound)
    gens = [(g, n) for g in gens if 0 < (n := sum(g)) <= bound]
    zero = (0,) * k
    reached = {zero}
    frontier = [(zero, 0)]
    while frontier:
        v, n = frontier.pop()
        for g, m in gens:
            if n + m <= bound and (w := tuple(map(add, v, g))) not in reached:
                reached.add(w)
                frontier.append((w, n + m))
    return frozenset(reached)


def count_sums(xs: Iterable[Counts], ys: Iterable[Counts], bound: int) -> frozenset[Counts]:
    """Pairwise sums of count tuples within bound."""
    ys = [(b, sum(b)) for b in ys]
    return frozenset(
        tuple(map(add, a, b))
        for a in xs
        if (n := sum(a)) <= bound
        for b, m in ys
        if n + m <= bound
    )


def closure_under_addition(base: VectorSet, bound: int) -> VectorSet:
    """Smallest superset of {0} ∪ base closed under pairwise addition, within bound.

    This is the Parikh-image semantics of the iterated shuffle of a
    commutative language.
    """
    gens = (v.counts for v in base.vectors)
    return _window(base.alphabet, count_closure(gens, len(base.alphabet), bound), bound)


def vector_sums(x: VectorSet, y: VectorSet, bound: int) -> VectorSet:
    """Pairwise sums within bound: the Parikh semantics of the binary shuffle."""
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")
    sums = count_sums((a.counts for a in x.vectors), (b.counts for b in y.vectors), bound)
    return _window(x.alphabet, sums, bound)


def _enumeration_guard(bound: int) -> None:
    if bound > CLOSURE_MAX_BOUND:
        raise SizeGuardError.over("enumeration", "enumeration_bound", CLOSURE_MAX_BOUND, bound)


def dpl_enumerate(u: DplUnion, bound: int) -> VectorSet:
    """The vectors of the union within bound: each count tuple is tested
    against every term's count sets."""
    _enumeration_guard(bound)
    terms = [t.sets for t in u.terms]
    return _window(
        u.alphabet,
        (
            c
            for c in count_tuples(len(u.alphabet), bound)
            if any(all(map(in_count_set, c, sets)) for sets in terms)
        ),
        bound,
    )


def predicate_enumerate(
    member: Callable[[ParikhVector], bool], alphabet: Alphabet, bound: int
) -> VectorSet:
    _enumeration_guard(bound)
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


def _arrangements(letters: tuple[str, ...], counts: Counts) -> list[str]:
    """Every word with counts[i] copies of letters[i]."""
    words = [""]
    for _ in range(sum(counts)):
        words = [w + a for w in words for a, n in zip(letters, counts) if w.count(a) < n]
    return words


def word_language(
    member: Callable[[ParikhVector], bool], alphabet: Alphabet, bound: int
) -> tuple[str, ...]:
    """All words of length <= bound whose Parikh vector is accepted, by
    length and then lexicographically in alphabet order.

    Commutative semantics: membership depends only on the count vector, so
    `member` is asked once per vector.
    """
    if bound > WORD_MAX_BOUND:
        raise SizeGuardError.over("word bound", "word_bound", WORD_MAX_BOUND, bound)
    rank = {ord(a): i for i, a in enumerate(alphabet.letters)}
    words = [
        w
        for v in all_vectors(alphabet, bound)
        if member(v)
        for w in _arrangements(alphabet.letters, v.counts)
    ]
    return tuple(sorted(words, key=lambda w: (len(w), w.translate(rank))))
