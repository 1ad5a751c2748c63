"""Diagonal periodic languages and their finite unions.

A diagonal periodic language over a support Γ ⊆ Σ constrains each letter of Γ
to an arithmetic progression of counts and every other letter to one exact
count (zero unless stated); the empty-support language with no exact counts is
{ε}.  A term whose progressions all have period one is perm(u) ⧢ Γ*.  Finite
unions of these are closed under union, intersection, binary shuffle,
projection and inverse projection, and, for terms without nonzero exact
counts, iterated shuffle, which is what this module implements.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence, Union as TUnion

from .errors import CriterionError, SizeGuardError
from .progressions import Progression, prog_intersect, prog_product
from .words import Alphabet, ParikhVector

DEFAULT_CLAUSE_GUARD = 10_000

# The counts a term allows for one letter: a progression or one exact count.
CountSet = TUnion[Progression, int]


@dataclass(frozen=True)
class DiagonalPeriodic:
    """Shuffle over a ∈ Γ of a^{k_a}(a^{p_a})* with a^{c_a} for each letter
    off Γ; `exact` lists the nonzero c_a."""

    alphabet: Alphabet
    progs: tuple[tuple[str, Progression], ...]
    exact: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        letters = [a for a, _ in self.progs]
        if any(a not in self.alphabet for a in letters):
            raise ValueError("support letter outside alphabet")
        support = set(letters)
        if letters != [a for a in self.alphabet.letters if a in support]:
            raise ValueError("progs must follow alphabet order without repeats")
        if self.exact:
            fixed = [a for a, _ in self.exact]
            allowed = set(fixed) - support
            if fixed != [a for a in self.alphabet.letters if a in allowed]:
                raise ValueError("exact counts must follow alphabet order, off the support")
            if any(c <= 0 for _, c in self.exact):
                raise ValueError("exact counts must be positive; zero is the default")

    @classmethod
    def make(
        cls,
        alphabet: Alphabet,
        progs: Mapping[str, Progression],
        exact: Optional[Mapping[str, int]] = None,
    ) -> "DiagonalPeriodic":
        letters = alphabet.letters
        return cls(
            alphabet,
            tuple((a, progs[a]) for a in letters if a in progs),
            tuple((a, exact[a]) for a in letters if exact.get(a)) if exact else (),
        )

    @classmethod
    def from_count_sets(cls, alphabet: Alphabet, sets: Sequence[CountSet]) -> "DiagonalPeriodic":
        """Term from one count set per letter, in alphabet order."""
        pairs = tuple(zip(alphabet.letters, sets))
        return cls(
            alphabet,
            tuple((a, s) for a, s in pairs if isinstance(s, Progression)),
            tuple((a, s) for a, s in pairs if not isinstance(s, Progression) and s),
        )

    @classmethod
    def perm_shuffle(cls, base: ParikhVector, tail: Iterable[str] = ()) -> "DiagonalPeriodic":
        """perm(base) ⧢ tail*: exact counts off the tail, period one on it."""
        tail = set(tail)
        return cls.from_count_sets(
            base.alphabet,
            [Progression(n, 1) if a in tail else n for a, n in zip(base.alphabet, base.counts)],
        )

    @classmethod
    def epsilon(cls, alphabet: Alphabet) -> "DiagonalPeriodic":
        return cls(alphabet, ())

    @classmethod
    def sigma_star(cls, alphabet: Alphabet) -> "DiagonalPeriodic":
        return cls.make(alphabet, {a: Progression(0, 1) for a in alphabet})

    @property
    def support(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.progs)

    def count_sets(self) -> tuple[CountSet, ...]:
        """Per letter of the alphabet, in order: its progression or exact count."""
        sets: dict[str, CountSet] = dict(self.exact)
        sets.update(self.progs)
        return tuple([sets.get(a, 0) for a in self.alphabet.letters])

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
    progs, exact = d.prog_dict(), dict(d.exact)
    for a, n in zip(d.alphabet, v.counts):
        p = progs.get(a)
        if p is None:
            if n != exact.get(a, 0):
                return False
        elif n not in p:
            return False
    return True


@dataclass(frozen=True)
class DplUnion:
    """Finite union of diagonal periodic languages over one alphabet."""

    alphabet: Alphabet
    terms: tuple[DiagonalPeriodic, ...]

    def __post_init__(self):
        if any(t.alphabet != self.alphabet for t in self.terms):
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

    def is_empty(self) -> bool:
        return not self.terms


def dpl_union_member(v: ParikhVector, u: DplUnion) -> bool:
    return any(dpl_member(v, t) for t in u.terms)


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
    return s1 if (s1 == s2 if isinstance(s2, int) else s1 in s2) else None


def _intersect_terms(
    alphabet: Alphabet, sets1: Sequence[CountSet], sets2: Sequence[CountSet]
) -> Optional[DiagonalPeriodic]:
    sets = []
    for s1, s2 in zip(sets1, sets2):
        both = _meet(s1, s2)
        if both is None:
            return None
        sets.append(both)
    return DiagonalPeriodic.from_count_sets(alphabet, sets)


def dpl_intersect(u1: DplUnion, u2: DplUnion) -> DplUnion:
    if u1.alphabet != u2.alphabet:
        raise ValueError("alphabet mismatch")
    sets2 = [t.count_sets() for t in u2.terms]
    terms = []
    for t1 in u1.terms:
        sets1 = t1.count_sets()
        for s2 in sets2:
            t = _intersect_terms(u1.alphabet, sets1, s2)
            if t is not None:
                terms.append(t)
    return DplUnion.of(u1.alphabet, terms)


def _add_count(s: CountSet, n: int) -> CountSet:
    return Progression(s.offset + n, s.period) if isinstance(s, Progression) else s + n


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
    sets2 = [t.count_sets() for t in u2.terms]
    terms = []
    for t1 in u1.terms:
        sets1 = t1.count_sets()
        for s2 in sets2:
            options = [_sums(x, y) for x, y in zip(sets1, s2)]
            terms.extend(
                DiagonalPeriodic.from_count_sets(u1.alphabet, choice)
                for choice in product(*options)
            )
    return DplUnion.of(u1.alphabet, terms)


def _iterate_term(t: DiagonalPeriodic) -> DplUnion:
    """{ε} ∪ ⋃_{i=1..N} (term with offsets scaled by i), N = lcm of the periods."""
    progs = t.prog_dict()
    n = reduce(math.lcm, (p.period for p in progs.values()), 1)
    terms = [DiagonalPeriodic.epsilon(t.alphabet)]
    for i in range(1, n + 1):
        terms.append(
            DiagonalPeriodic.make(
                t.alphabet, {a: Progression(i * p.offset, p.period) for a, p in progs.items()}
            )
        )
    return DplUnion.of(t.alphabet, terms)


def dpl_iterated_shuffle(u: DplUnion) -> DplUnion:
    """Iterated shuffle of a union whose terms have no nonzero exact count.

    An exact count ties letters together (the closure of perm(ab) is not
    regular), so such terms are refused; `aperiodic.union_iterated_shuffle`
    handles unions of perm(u) ⧢ Γ* terms.
    """
    for t in u.terms:
        if t.exact:
            letter = t.exact[0][0]
            raise CriterionError(
                f"iterated shuffle needs progressions only: letter {letter!r} has an exact count",
                letter=letter,
            )
    result = DplUnion.epsilon(u.alphabet)
    for t in u.terms:
        result = dpl_shuffle(result, _iterate_term(t))
    return result


def dpl_project(u: DplUnion, keep: Iterable[str]) -> DplUnion:
    keep = set(keep)
    sub = u.alphabet.restrict(keep)
    terms = [
        DiagonalPeriodic(
            sub,
            tuple(q for q in t.progs if q[0] in keep),
            tuple(q for q in t.exact if q[0] in keep),
        )
        for t in u.terms
    ]
    return DplUnion.of(sub, terms)


def dpl_inverse_project(u: DplUnion, alphabet: Alphabet) -> DplUnion:
    """Lift a union over a subalphabet to `alphabet`; new letters become free."""
    if any(a not in alphabet for a in u.alphabet):
        raise ValueError("union's alphabet must be contained in the target alphabet")
    free = {a: Progression(0, 1) for a in alphabet if a not in u.alphabet}
    terms = [
        DiagonalPeriodic.make(alphabet, {**t.prog_dict(), **free}, dict(t.exact))
        for t in u.terms
    ]
    return DplUnion.of(alphabet, terms)


def dpl_shift(u: DplUnion, v: ParikhVector) -> DplUnion:
    """Add the fixed vector `v` to every term (the shuffle with perm(v))."""
    if v.alphabet != u.alphabet:
        raise ValueError("alphabet mismatch")
    terms = [
        DiagonalPeriodic.from_count_sets(
            u.alphabet, [_add_count(s, n) for s, n in zip(t.count_sets(), v.counts)]
        )
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
    if isinstance(g, GammaStar):
        progs = {a: Progression(0, 1) for a in alphabet if a in g.letters}
        return DplUnion.of(alphabet, [DiagonalPeriodic.make(alphabet, progs)])
    if isinstance(g, GammaPlus):
        terms = []
        for b in alphabet:
            if b in g.letters:
                progs = {a: Progression(0, 1) for a in alphabet if a in g.letters}
                progs[b] = Progression(1, 1)
                terms.append(DiagonalPeriodic.make(alphabet, progs))
        return DplUnion.of(alphabet, terms)
    raise TypeError(f"not a generator: {g!r}")


def from_generators(
    expr: PosBoolExpr, alphabet: Alphabet, clause_guard: int = DEFAULT_CLAUSE_GUARD
) -> DplUnion:
    """Evaluate a positive boolean combination of generators to a union of
    diagonal periodic languages, distributing intersection over union."""

    def check(u: DplUnion) -> DplUnion:
        if len(u.terms) > clause_guard:
            raise SizeGuardError(
                f"clause guard exceeded: {len(u.terms)} > {clause_guard} terms"
            )
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
        return _intersect_terms(alphabet, d.count_sets(), star.count_sets())
    return d


# --- serialization --------------------------------------------------------


def _term_to_dict(t: DiagonalPeriodic) -> dict:
    data = {
        "support": sorted(t.support),
        "progs": {a: {"k": p.offset, "p": p.period} for a, p in t.progs},
    }
    if t.exact:
        data["exact"] = dict(t.exact)
    return data


def dpl_union_to_dict(u: DplUnion) -> dict:
    terms = [_term_to_dict(t) for t in u.terms]
    terms.sort(key=lambda t: json.dumps(t, sort_keys=True))
    return {"alphabet": list(u.alphabet.letters), "terms": terms}


def dpl_union_to_json(u: DplUnion) -> str:
    return json.dumps(dpl_union_to_dict(u), sort_keys=True)


def dpl_union_from_dict(data: dict) -> DplUnion:
    alphabet = Alphabet.of(data["alphabet"])
    terms = []
    for t in data["terms"]:
        progs = {a: Progression(q["k"], q["p"]) for a, q in t["progs"].items()}
        if set(t["support"]) != set(progs):
            raise ValueError("support and progs disagree")
        terms.append(DiagonalPeriodic.make(alphabet, progs, t.get("exact", {})))
    return DplUnion.of(alphabet, terms)


def dpl_union_from_json(text: str) -> DplUnion:
    return dpl_union_from_dict(json.loads(text))
