"""Diagonal periodic languages and their finite unions.

A diagonal periodic term gives each letter of the alphabet one count set:
either an arithmetic progression k + pN of counts or one exact count, zero
meaning that the letter does not occur.  The letters with a progression form
the term's support Γ; the term whose count sets are all zero is {ε}, and a
term whose progressions all have period one is perm(u) ⧢ Γ*.  Finite unions
of these are closed under union, intersection, binary shuffle, projection and
inverse projection, which is what this module implements.  They are closed
under iterated shuffle too when no term has a nonzero exact count;
`dpl_iterated_shuffle` gives such a union's `aperiodic.Closure` normal form,
converted from the linear-set fold, the one iterated-shuffle algorithm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence, Union as TUnion

from .errors import CriterionError, SizeGuardError
from .progressions import Progression, prog_intersect, prog_product
from .words import Alphabet, ParikhVector

DEFAULT_CLAUSE_GUARD = 10_000

# The counts a term allows for one letter: a progression or one exact count.
CountSet = TUnion[Progression, int]


def in_count_set(n: int, s: CountSet) -> bool:
    """Whether the count n lies in the count set s."""
    return n in s if isinstance(s, Progression) else n == s


def grid(u: DplUnion) -> list[tuple[int, int]]:
    """Per letter, the threshold T_a and period P_a of the count grid of u.

    P_a is the lcm of the letter's periods, and T_a the largest, over the
    terms, of max(k - p + 1, 0) for a progression k + pN and of c + 1 for an
    exact count c.  Counts from T_a on that agree modulo P_a lie in the same
    count sets of every term, so a count vector collapses (`collapse`): no
    count from c + 1 on is c, and for k - p + 1 <= n < k neither n nor
    n + P_a is k modulo p, while from k on only the residue matters.  For
    one count set both are the least: if T_a > 0, exactly one of n = T_a - 1
    (k - p, or c) and n + P_a lies in the set, and p is the least period of
    k + pN, so the letter's line is the minimal unary automaton of the set."""
    return [
        (max(max(c[0] - c[1] + 1, 0) if isinstance(c, Progression) else c + 1 for c in sets),
         math.lcm(*(c[1] for c in sets if isinstance(c, Progression))))
        for sets in zip(*(t.sets for t in u.terms))
    ]


def collapse(n: int, line: tuple[int, int]) -> int:
    """The count n on a letter's line (T_a, P_a) of `grid`: T_a + (n - T_a)
    mod P_a from T_a on, a count that lies in the same count sets as n."""
    top, period = line
    return n if n < top else top + (n - top) % period


def count_set_subset(s1: CountSet, s2: CountSet) -> bool:
    """Whether the count set s1 is contained in the count set s2.

    A progression lies in a progression whose period divides its own and
    which holds its offset, and never in an exact count; an exact count lies
    in any count set that holds it.
    """
    if isinstance(s1, Progression):
        return isinstance(s2, Progression) and s2.contains_progression(s1)
    return in_count_set(s1, s2)


@dataclass(frozen=True, eq=False)
class DiagonalPeriodic:
    """Shuffle over the letters a of the alphabet of a^{k_a}(a^{p_a})* or of
    a^{c_a}: `sets` holds, in alphabet order, the progression (k_a, p_a) or
    the exact count c_a of each letter.

    Two terms are equal when their alphabets have the same letters in the
    same order and their `sets` are equal, so equal terms denote the same
    language; the hash is that of `sets` alone.  A count set is a
    `Progression` or an `int`: a plain (k, p) pair equals the progression
    (k, p) but is refused."""

    alphabet: Alphabet
    sets: tuple[CountSet, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.alphabet):
            raise ValueError("a term needs one count set per letter of its alphabet")
        for s in self.sets:
            if type(s) is not Progression and (type(s) is not int or s < 0):
                raise ValueError(f"count set {s!r} is neither a progression nor a count >= 0")

    def __eq__(self, other):
        if other.__class__ is not DiagonalPeriodic:
            return NotImplemented
        return self.sets == other.sets and self.alphabet.letters == other.alphabet.letters

    def __hash__(self):
        return hash(self.sets)

    @classmethod
    def make(
        cls,
        alphabet: Alphabet,
        progs: Mapping[str, Progression],
        exact: Optional[Mapping[str, int]] = None,
    ) -> "DiagonalPeriodic":
        """Term from the progressions of its support letters and the exact
        counts of the others (zero unless given)."""
        exact = exact or {}
        unknown = (set(progs) | set(exact)) - set(alphabet.letters)
        if unknown:
            raise ValueError(f"letters {sorted(unknown)} outside the alphabet")
        clash = [a for a in progs if exact.get(a)]
        if clash:
            raise ValueError(f"letter {clash[0]!r} has both a progression and an exact count")
        return cls(alphabet, tuple(progs.get(a, exact.get(a, 0)) for a in alphabet.letters))

    @classmethod
    def perm_shuffle(cls, base: ParikhVector, tail: Iterable[str] = ()) -> "DiagonalPeriodic":
        """perm(base) ⧢ tail*: exact counts off the tail, period one on it."""
        tail = set(tail)
        return cls(
            base.alphabet,
            tuple(Progression(n, 1) if a in tail else n for a, n in zip(base.alphabet, base.counts)),
        )

    @classmethod
    def epsilon(cls, alphabet: Alphabet) -> "DiagonalPeriodic":
        return cls(alphabet, (0,) * len(alphabet))

    @classmethod
    def sigma_star(cls, alphabet: Alphabet) -> "DiagonalPeriodic":
        return cls(alphabet, (Progression(0, 1),) * len(alphabet))

    # Derived views, computed on first use: the operations read `sets`,
    # while serialization and callers that name letters read these.
    @cached_property
    def progs(self) -> tuple[tuple[str, Progression], ...]:
        """(letter, progression) of the support letters, in alphabet order."""
        return tuple(
            [(a, s) for a, s in zip(self.alphabet.letters, self.sets) if isinstance(s, Progression)]
        )

    @cached_property
    def exact(self) -> tuple[tuple[str, int], ...]:
        """(letter, count) of the nonzero exact counts, in alphabet order."""
        return tuple(
            [
                (a, s)
                for a, s in zip(self.alphabet.letters, self.sets)
                if s and not isinstance(s, Progression)
            ]
        )

    def prog(self, a: str) -> Optional[Progression]:
        for letter, p in self.progs:
            if letter == a:
                return p
        return None

    def prog_dict(self) -> dict[str, Progression]:
        return dict(self.progs)


def dpl_member(v: ParikhVector, d: DiagonalPeriodic) -> bool:
    if v.alphabet != d.alphabet:
        raise ValueError("alphabet mismatch")
    return all(in_count_set(n, s) for n, s in zip(v.counts, d.sets))


@dataclass(frozen=True)
class DplUnion:
    """Finite union of diagonal periodic languages over one alphabet."""

    alphabet: Alphabet
    terms: tuple[DiagonalPeriodic, ...]

    def __post_init__(self):
        letters = self.alphabet.letters
        if any(t.alphabet.letters != letters for t in self.terms):
            raise ValueError("all terms must share the union's alphabet")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("terms must be deduplicated")

    @classmethod
    def of(cls, alphabet: Alphabet, terms: Iterable[DiagonalPeriodic]) -> "DplUnion":
        return cls(alphabet, tuple(dict.fromkeys(terms)))

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "DplUnion":
        return cls(alphabet, ())

    @classmethod
    def epsilon(cls, alphabet: Alphabet) -> "DplUnion":
        return cls(alphabet, (DiagonalPeriodic.epsilon(alphabet),))

    @classmethod
    def sigma_star(cls, alphabet: Alphabet) -> "DplUnion":
        return cls(alphabet, (DiagonalPeriodic.sigma_star(alphabet),))


def dpl_union_member(v: ParikhVector, u: DplUnion) -> bool:
    return any(dpl_member(v, t) for t in u.terms)


def term_subset(t1: DiagonalPeriodic, t2: DiagonalPeriodic) -> bool:
    """Whether the term t1 is contained in the term t2 (same alphabet): a
    term is the product of its count sets, so letter by letter."""
    return all(map(count_set_subset, t1.sets, t2.sets))


def _size_key(t: DiagonalPeriodic) -> tuple[int, int, int]:
    """The sum of the least counts, the number of exact counts and the product
    of the periods of a term."""
    least, exact, periods = 0, 0, 1
    for s in t.sets:
        if isinstance(s, Progression):
            k, p = s
            least += k
            periods *= p
        else:
            least += s
            exact += 1
    return least, exact, periods


def _residues(sets: Sequence[CountSet], periods: tuple[Optional[int], ...]) -> Optional[tuple]:
    """Per letter, a term's least count modulo the period (the count itself
    where it is None); None if no term with these periods contains the term:
    one does not divide the term's, or is None where the term has one."""
    key = []
    for s, p in zip(sets, periods):
        if isinstance(s, Progression):
            s, period = s
            if p is None or period % p:
                return None
        key.append(s if p is None else s % p)
    return tuple(key)


def maximal_terms(u: DplUnion) -> DplUnion:
    """The union without the terms that another of its terms contains; the
    kept terms keep their order in u, and u itself is returned when none is
    dropped.

    One pass over the terms sorted by `_size_key` tests each against the kept
    ones, since a term t2 that contains another term t1 has a strictly
    smaller key.  Letter by letter, t2's count set holds t1's: its least
    count is no larger, it is an exact count only where t1's is, and where
    both are progressions its period divides t1's.  So t2 has no larger sum
    of least counts and no more exact counts.  If both are equal, every least
    count is equal and the exact counts sit on the same letters, so each
    period of t2 divides t1's, and the products are equal only if t1 = t2.
    A term that some term contains is therefore contained in a kept one
    taken before it (containment is transitive), and a kept term is
    contained in none.

    The kept terms are filed by their period vector (None on a letter with
    an exact count), then by their least counts modulo it (`_residues`).
    Letter by letter, t2's least count agrees with t1's modulo t2's period,
    so t1 is tested only against the kept terms filed under its own
    residues, for each period vector filed so far.
    """
    kept: dict[tuple[Optional[int], ...], dict[tuple[int, ...], list[DiagonalPeriodic]]] = {}
    n = 0
    for t in sorted(u.terms, key=_size_key):
        for periods, filed in kept.items():
            near = filed.get(_residues(t.sets, periods))
            if near and any(term_subset(t, k) for k in near):
                break
        else:
            periods = tuple([s[1] if isinstance(s, Progression) else None for s in t.sets])
            kept.setdefault(periods, {}).setdefault(_residues(t.sets, periods), []).append(t)
            n += 1
    if n == len(u.terms):
        return u
    keep = {t for filed in kept.values() for ts in filed.values() for t in ts}
    return DplUnion(u.alphabet, tuple(t for t in u.terms if t in keep))


def dpl_union(u1: DplUnion, u2: DplUnion) -> DplUnion:
    if u1.alphabet != u2.alphabet:
        raise ValueError("alphabet mismatch")
    return DplUnion.of(u1.alphabet, u1.terms + u2.terms)


def _meet(s1: CountSet, s2: CountSet) -> Optional[CountSet]:
    """Intersection of two count sets; None when empty."""
    if isinstance(s1, Progression):
        if isinstance(s2, Progression):
            return prog_intersect(s1, s2)
        s1, s2 = s2, s1
    # s1 is an exact count: it survives only if the other side allows it
    return s1 if in_count_set(s1, s2) else None


def _intersect_terms(
    alphabet: Alphabet, sets1: Sequence[CountSet], sets2: Sequence[CountSet]
) -> Optional[DiagonalPeriodic]:
    sets = []
    for s1, s2 in zip(sets1, sets2):
        both = _meet(s1, s2)
        if both is None:
            return None
        sets.append(both)
    return DiagonalPeriodic(alphabet, tuple(sets))


def dpl_intersect(u1: DplUnion, u2: DplUnion) -> DplUnion:
    if u1.alphabet != u2.alphabet:
        raise ValueError("alphabet mismatch")
    terms = []
    for t1 in u1.terms:
        for t2 in u2.terms:
            t = _intersect_terms(u1.alphabet, t1.sets, t2.sets)
            if t is not None:
                terms.append(t)
    return DplUnion.of(u1.alphabet, terms)


def _add_count(s: CountSet, n: int) -> CountSet:
    return Progression(s[0] + n, s[1]) if isinstance(s, Progression) else s + n


def _sums(s1: CountSet, s2: CountSet) -> Sequence[CountSet]:
    """The sumset of two count sets, as a list of count sets."""
    if isinstance(s1, Progression) and isinstance(s2, Progression):
        return prog_product(s1, s2)
    if isinstance(s1, Progression):
        return [_add_count(s1, s2)]
    return [_add_count(s2, s1)]


def dpl_shuffle(u1: DplUnion, u2: DplUnion) -> DplUnion:
    if u1.alphabet != u2.alphabet:
        raise ValueError("alphabet mismatch")
    terms = []
    for t1 in u1.terms:
        for t2 in u2.terms:
            options = [_sums(x, y) for x, y in zip(t1.sets, t2.sets)]
            terms.extend(
                DiagonalPeriodic(u1.alphabet, choice) for choice in product(*options)
            )
    return DplUnion.of(u1.alphabet, terms)


def dpl_iterated_shuffle(u: DplUnion) -> DplUnion:
    """Iterated shuffle of a union whose terms have no nonzero exact count.

    An exact count ties letters together (the closure of perm(ab) is not
    regular), so such terms are refused; `aperiodic.union_iterated_shuffle`
    takes any union.  For these unions it is the same fold, whose result
    holds no term contained in another.
    """
    for t in u.terms:
        if t.exact:
            letter = t.exact[0][0]
            raise CriterionError(
                f"iterated shuffle needs progressions only: letter {letter!r} has an exact count",
                letter=letter,
            )
    # imported here: aperiodic builds on this module
    from .aperiodic import Closure

    return Closure(u).normal_form


def dpl_project(u: DplUnion, keep: Iterable[str]) -> DplUnion:
    keep = set(keep)
    sub = u.alphabet.restrict(keep)
    kept = [i for i, a in enumerate(u.alphabet) if a in keep]
    terms = [DiagonalPeriodic(sub, tuple(t.sets[i] for i in kept)) for t in u.terms]
    return DplUnion.of(sub, terms)


def dpl_inverse_project(u: DplUnion, alphabet: Alphabet) -> DplUnion:
    """Lift a union over a subalphabet to `alphabet`; new letters become free."""
    if any(a not in alphabet for a in u.alphabet):
        raise ValueError("union's alphabet must be contained in the target alphabet")
    source = [u.alphabet.index(a) if a in u.alphabet else None for a in alphabet]
    free = Progression(0, 1)
    terms = [
        DiagonalPeriodic(alphabet, tuple(free if i is None else t.sets[i] for i in source))
        for t in u.terms
    ]
    return DplUnion.of(alphabet, terms)


def dpl_shift(u: DplUnion, v: ParikhVector) -> DplUnion:
    """Add the fixed vector `v` to every term (the shuffle with perm(v))."""
    if v.alphabet != u.alphabet:
        raise ValueError("alphabet mismatch")
    terms = [
        DiagonalPeriodic(u.alphabet, tuple(map(_add_count, t.sets, v.counts)))
        for t in u.terms
    ]
    return DplUnion.of(u.alphabet, terms)


# --- generators of the positive boolean algebra ---------------------------


@dataclass(frozen=True)
class Fcount:
    """F(a, t): at least t occurrences of the letter a."""

    letter: str
    threshold: int

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")


@dataclass(frozen=True)
class Fmod:
    """F(a, r, n): number of occurrences of a congruent to r mod n."""

    letter: str
    residue: int
    modulus: int

    def __post_init__(self):
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must satisfy 0 <= r < n")


@dataclass(frozen=True)
class GammaStar:
    """Γ*: only letters of Γ occur."""

    letters: frozenset[str]


@dataclass(frozen=True)
class GammaPlus:
    """Γ+: only letters of Γ occur, and at least one of them does."""

    letters: frozenset[str]


@dataclass(frozen=True)
class GenUnion:
    parts: tuple["PosBoolExpr", ...]


@dataclass(frozen=True)
class GenIntersect:
    parts: tuple["PosBoolExpr", ...]


PosBoolExpr = TUnion[Fcount, Fmod, GammaStar, GammaPlus, GenUnion, GenIntersect]


def _generator_union(g, alphabet: Alphabet) -> DplUnion:
    free = {a: Progression(0, 1) for a in alphabet}
    if isinstance(g, Fcount):
        progs = dict(free)
        progs[g.letter] = Progression(g.threshold, 1)
        return DplUnion.of(alphabet, [DiagonalPeriodic.make(alphabet, progs)])
    if isinstance(g, Fmod):
        progs = dict(free)
        progs[g.letter] = Progression(g.residue, g.modulus)
        return DplUnion.of(alphabet, [DiagonalPeriodic.make(alphabet, progs)])
    if isinstance(g, (GammaStar, GammaPlus)):
        gamma = {a: Progression(0, 1) for a in g.letters}
        # `make` refuses a letter of Γ outside the alphabet, as for F(a, ...)
        star = DiagonalPeriodic.make(alphabet, gamma)
        if isinstance(g, GammaStar):
            return DplUnion.of(alphabet, [star])
        terms = [
            DiagonalPeriodic.make(alphabet, {**gamma, b: Progression(1, 1)})
            for b in alphabet
            if b in g.letters
        ]
        return DplUnion.of(alphabet, terms)
    raise TypeError(f"not a generator: {g!r}")


def from_generators(
    expr: PosBoolExpr, alphabet: Alphabet, clause_guard: int = DEFAULT_CLAUSE_GUARD
) -> DplUnion:
    """Evaluate a positive boolean combination of generators to a union of
    diagonal periodic languages, distributing intersection over union."""

    def check(u: DplUnion) -> DplUnion:
        if len(u.terms) > clause_guard:
            raise SizeGuardError.over("clause", "clauses", clause_guard, len(u.terms))
        return u

    def go(e) -> DplUnion:
        if isinstance(e, GenUnion):
            return check(reduce(dpl_union, (go(p) for p in e.parts)))
        if isinstance(e, GenIntersect):
            return check(reduce(dpl_intersect, (go(p) for p in e.parts)))
        return check(_generator_union(e, alphabet))

    return go(expr)


def lemma_closed_form(
    alphabet: Alphabet,
    thresholds: Mapping[str, int],
    residues: Mapping[str, int],
    moduli: Mapping[str, int],
    gamma: Optional[Iterable[str]] = None,
) -> DiagonalPeriodic:
    """Closed form for ⋂ F(a, t_a) ∩ ⋂ F(a, r_a, n_a) (∩ Γ* when given).

    Independent of the clause-folding path in `from_generators`; the two are
    cross-checked in the tests.  The offset in the threshold-and-modulus case
    is the least count >= t_a congruent to r_a; written with an extra mod to
    cover n_a | (t_a - r_a), where the plain n - ((t-r) mod n) form lands one
    period too high.
    """
    sigma1, sigma2 = set(thresholds), set(residues)
    if sigma2 != set(moduli):
        raise ValueError("residues and moduli must cover the same letters")
    for a in sigma2:
        if not 0 <= residues[a] < moduli[a]:
            raise ValueError(f"residue out of range for letter {a}")
    progs: dict[str, Progression] = {}
    for a in alphabet:
        if a in sigma1 and a in sigma2:
            t, r, n = thresholds[a], residues[a], moduli[a]
            k = t + (n - ((t - r) % n)) % n if t > r else r
        elif a in sigma2:
            k = residues[a]
        elif a in sigma1:
            k = thresholds[a]
        else:
            k = 0
        p = moduli[a] if a in sigma2 else 1
        progs[a] = Progression(k, p)
    d = DiagonalPeriodic.make(alphabet, progs)
    if gamma is not None:
        # clauses carrying a Γ* constraint; empty intersection is a value (None)
        star = _generator_union(GammaStar(frozenset(gamma)), alphabet).terms[0]
        return _intersect_terms(alphabet, d.sets, star.sets)
    return d


# --- serialization --------------------------------------------------------


def _term_to_dict(t: DiagonalPeriodic) -> dict:
    progs = t.progs
    data = {
        "support": sorted(a for a, _ in progs),
        "progs": {a: {"k": k, "p": p} for a, (k, p) in progs},
    }
    exact = t.exact
    if exact:
        data["exact"] = dict(exact)
    return data


def dpl_union_to_dict(u: DplUnion) -> dict:
    terms = [_term_to_dict(t) for t in u.terms]
    terms.sort(key=lambda t: json.dumps(t, sort_keys=True))
    return {"alphabet": list(u.alphabet.letters), "terms": terms}


def dpl_union_from_dict(data: dict) -> DplUnion:
    alphabet = Alphabet.of(data["alphabet"])
    terms = []
    for t in data["terms"]:
        progs = {a: Progression(q["k"], q["p"]) for a, q in t["progs"].items()}
        if set(t["support"]) != set(progs):
            raise ValueError("support and progs disagree")
        terms.append(DiagonalPeriodic.make(alphabet, progs, t.get("exact", {})))
    return DplUnion.of(alphabet, terms)
