"""Star-free commutative languages, and the iterated shuffle of any union.

The terms perm(u) ⧢ Γ* (a fixed multiset of letters plus any letters of a
tail alphabet) are the diagonal periodic terms whose progressions all have
period one; interval letter-count constraints expand into unions of them.

The iterated shuffle of any union of terms is computed on linear sets
b + ⟨P⟩ of Parikh vectors (Ginsburg & Spanier, Pacific J. Math. 16, 1966):
sh*(A ∪ B) = sh*(A) ⧢ sh*(B), and a term b + ⟨V⟩ has the closure
{0} ∪ (b + ⟨V ∪ {b}⟩).  A linear set whose non-unary periods use only
letters with a unary period is recognizable and converts to terms exactly
(`closure_terms`, a search for the minimal offsets of each residue class).
Each other one is absorbed, exactly, by a walk on a DFA of the recognizable
part, or a sub-alphabet certificate proves the closure not regular, or the
computation reports it undecided.  A `Closure` holds one iterated shuffle.
"""

from __future__ import annotations

import heapq
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .dpl import (
    DiagonalPeriodic,
    DplUnion,
    collapse,
    dpl_project,
    dpl_shuffle,
    dpl_union_from_dict,
    dpl_union_member,
    dpl_union_to_dict,
    grid,
    in_count_set,
    maximal_terms,
)
from .errors import NonRegularError, SizeGuardError, UndecidedError
from .progressions import Progression
from .words import Alphabet, ParikhVector, word_of

# Linear sets one fold step may hold before pruning: n terms give up to 2^n.
CLOSURE_LINEAR_SET_GUARD = 2048
# Vectors one search may visit: offsets that join a residue class in a monoid
# membership test (about n² for counts near n in the closure of {ab, bc}, whose
# letters have no unary period) or states of a walk.
CLOSURE_MEMBER_STATE_GUARD = 100_000
# Offsets that may join an antichain in `closure_terms`: one antichain per
# residue class, up to prod m_a classes, and the antichains can be wide.
REPRESENTATION_OFFSET_GUARD = 100_000

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


def term_iterated_shuffle_normal_form(t: DiagonalPeriodic) -> DplUnion:
    """Closure of one term, as a union of terms."""
    return Closure(DplUnion.of(t.alphabet, [t])).normal_form


# --- iterated shuffle of whole unions -------------------------------------

Vector = tuple[int, ...]
# b + ⟨P⟩: a base vector and the period vectors, whose sums it may add.
Linear = tuple[Vector, frozenset[Vector]]


def _minus(x: Vector, y: Vector) -> Vector:
    return tuple(map(operator.sub, x, y))


def _is_unary(p: Vector) -> bool:
    return sum(1 for x in p if x) == 1


def _walk(sources: Iterable[Vector], nexts) -> Iterator[Vector]:
    """The vectors that `nexts` leads to from `sources`, these included, each
    yielded once as the search takes it up.  Finding more than
    CLOSURE_MEMBER_STATE_GUARD of them trips the closure_member_states guard,
    as soon as one too many is found."""
    seen = set(sources)
    todo = list(seen)
    while todo:
        v = todo.pop()
        yield v
        for n in nexts(v):
            if n not in seen:
                seen.add(n)
                todo.append(n)
                if len(seen) > CLOSURE_MEMBER_STATE_GUARD:
                    raise SizeGuardError.over(
                        "closure membership", "closure_member_states",
                        CLOSURE_MEMBER_STATE_GUARD, len(seen),
                    )


def _reach(sources: Iterable[Vector], nexts) -> set[Vector]:
    """The vectors that `nexts` leads to from `sources`, these included."""
    return set(_walk(sources, nexts))


def _in_monoid(d: Vector, gens: frozenset[Vector]) -> bool:
    """Whether d is a sum of vectors of gens (non-zero, non-negative): the
    search of `closure_terms` over the non-unary generators from 0, bounded
    by d, until an offset x leaves d - x a sum of unary generators on every
    letter (proof in `closure_terms`).  Every offset that joins counts
    towards the closure_member_states guard."""
    if not any(d) or d in gens:
        return True
    if min(d) < 0 or not gens:
        return False
    units, mixed = _unary_periods(gens, len(d))
    mods = tuple(u[0] if u else x + 1 for u, x in zip(units, d))
    least = [_least_sums(u) if u else {0: 0} for u in units]

    def done(x: Vector) -> bool:
        rest = map(operator.sub, d, x)
        return all(sums.get(r % m, r + 1) <= r for sums, r, m in zip(least, rest, mods))

    guard = ("closure membership", "closure_member_states", CLOSURE_MEMBER_STATE_GUARD)
    return _minimal_offsets((0,) * len(d), mods, mixed, guard, bound=d, goal=done) is None


def _term_linear(t: DiagonalPeriodic) -> Linear:
    """A term as b + ⟨p_a·e_a⟩: offsets and exact counts make the base, and
    each progression gives a unary period."""
    base = tuple(s[0] if isinstance(s, Progression) else s for s in t.sets)
    units = [(i, s[1]) for i, s in enumerate(t.sets) if isinstance(s, Progression)]
    return base, frozenset(tuple(p if j == i else 0 for j in range(len(base))) for i, p in units)


def _contains(outer: Linear, inner: Linear) -> bool:
    """Sufficient for inner ⊆ outer: inner's base lies in outer, and each of
    inner's periods in outer's monoid."""
    (b1, p1), (b2, p2) = outer, inner
    return _in_monoid(_minus(b2, b1), p1) and all(_in_monoid(p, p1) for p in p2)


def _shuffle_in(s: Linear, b: Vector, v: frozenset[Vector]) -> list[Linear]:
    """(c + ⟨P⟩) ⧢ sh*(b + ⟨V⟩) = (c + ⟨P⟩) ∪ (c + b + ⟨P ∪ V ∪ {b}⟩).  For
    a point (V empty) that is the one set c + ⟨P ∪ {b}⟩, unless only c + ⟨P⟩
    is recognizable: merged, it would hide that piece from the regular part.
    A zero base adds no period."""
    c, p = s
    merged = (c, p | {b} if any(b) else p)
    if not v and (_recognizable(merged) or not _recognizable(s)):
        return [merged]
    return [s, (tuple(x + y for x, y in zip(c, b)), merged[1] | v)]


def fold_linear_sets(u: DplUnion) -> list[Linear]:
    """sh*(u) as linear sets: from {0}, each term b + ⟨V⟩ of u shuffled in
    by `_shuffle_in`.  After each step the sets that another contains are
    dropped, as `dpl.maximal_terms` drops terms.  The recognizable sets come
    first."""
    sets: list[Linear] = [((0,) * len(u.alphabet), frozenset())]
    for b, v in map(_term_linear, u.terms):
        sets = [n for s in sets for n in _shuffle_in(s, b, v)]
        if len(sets) > CLOSURE_LINEAR_SET_GUARD:
            raise SizeGuardError.over(
                "closure linear set", "closure_linear_sets", CLOSURE_LINEAR_SET_GUARD, len(sets)
            )
        kept: list[Linear] = []
        for s in sets:
            if not any(_contains(k, s) for k in kept):
                kept = [k for k in kept if not _contains(s, k)] + [s]
        sets = kept
    # the recognizable sets first: a membership test searches at most the
    # residue classes that their non-unary periods reach, whatever the
    # vector, and gives a letter without a unary period a class per count
    # (`_in_monoid`)
    return sorted(sets, key=lambda s: not _recognizable(s))


def _recognizable(s: Linear) -> bool:
    """Every letter of a non-unary period also has a unary period."""
    units, mixed = _unary_periods(s[1], len(s[0]))
    return all(units[i] for p in mixed for i, x in enumerate(p) if x)


def closure_terms(
    alphabet: Alphabet, base: Vector, periods: Iterable[Vector]
) -> tuple[DiagonalPeriodic, ...]:
    """The linear set base + ⟨periods⟩ of count vectors as distinct terms,
    for a recognizable one: each letter of a period also has a unary period.

    Each letter a with a unary period gets the smallest one, m_a, as the
    period of its progression; a letter without one keeps its base count.
    The steps are the periods with some count v_a not a multiple of m_a;
    every other period is a sum of the m_a·e_a.  So the set is the union of
    x + ⟨m_a·e_a⟩ over the offsets x, the base plus sums of steps.  Of the
    offsets in one residue class mod (m_a), only the componentwise-minimal
    ones are kept: a larger one gives a term that the smaller one's term
    contains.  So no term is contained in another.

    The minimal offsets are found by a search over the residue classes
    (`_minimal_offsets`), each holding the antichain of the least offsets
    found in it so far.  From the base, it takes offsets up in order of
    their coordinate sum, skipping one dropped since it joined its class,
    and adds each step to each; a sum joins its class (`_add_minimal`)
    unless an offset there lies at or below it, and drops those above it.
    The antichains end as exactly the minimal offsets:
    - The base lies below every offset, so it is minimal.
    - A minimal offset y other than the base is x + v for a step v and an
      offset x of smaller sum, and x is minimal: an offset x' <= x in x's
      class gives x' + v <= y in y's class, so x' + v = y and x' = x.
    - So, by induction on the sum, each minimal offset joins its class at
      the latest when that x is taken up, and stays: nothing lies strictly
      below it.
    - An offset z that is not minimal lies above a minimal one z' of smaller
      sum, which joins before z is taken up: so z either never joins, or is
      dropped when z' joins, and is never taken up.
    An offset joins at most once, and each one that joins counts towards
    REPRESENTATION_OFFSET_GUARD; as each is taken up at most once, the guard
    bounds the work too.

    A membership test (`_in_monoid`) of d in ⟨P⟩ runs the same search over
    the non-unary periods from 0, bounded by d: only offsets at or below d
    join.  The steps are non-negative, so an offset at or below d is reached
    only through offsets at or below d, and the proof above holds for those
    offsets alone.  A letter without a unary period gets the modulus
    d_b + 1, so below d its residue is its count, and a non-unary period
    that is no step is a sum of the m_a·e_a or exceeds d.  d is a sum of
    periods exactly when d = x + u for a sum x of non-unary periods and a
    sum u of unary ones: on each letter a, d_a - x_a is a sum of a's unary
    periods, that is, at least the least such sum in its residue class
    modulo m_a (`_least_sums`, the same search on one letter), and 0 on a
    letter without one.  An offset x' >= x in x's class differs from x by
    multiples of the m_a, and not at all on a letter without a unary
    period, so if x' serves, x serves too: the minimal offsets decide.  The
    classes searched are those that the non-unary periods reach, whatever
    the unary periods of letters that none of them uses.
    """
    periods = frozenset(p for p in periods if any(p))
    unary = [u[0] if u else 0 for u in _unary_periods(periods, len(alphabet))[0]]
    # modulus one leaves a letter without a unary period at its base count
    mods = tuple(m or 1 for m in unary)
    guard = ("representation", "representation_offsets", REPRESENTATION_OFFSET_GUARD)
    classes = _minimal_offsets(tuple(base), mods, periods, guard)
    return tuple(
        DiagonalPeriodic(
            alphabet, tuple(Progression(y, m) if u else y for u, y, m in zip(unary, o, mods))
        )
        for offsets in classes.values()
        for o in offsets
    )


@lru_cache(maxsize=1024)
def _unary_periods(
    periods: frozenset[Vector], n: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[Vector, ...]]:
    """The sorted unary periods of each of n letters, and the other periods;
    the periods are non-zero."""
    units: list[set[int]] = [set() for _ in range(n)]
    mixed = []
    for p in periods:
        (i, x), *more = [(i, x) for i, x in enumerate(p) if x]
        if more:
            mixed.append(p)
        else:
            units[i].add(x)
    return tuple(tuple(sorted(u)) for u in units), tuple(mixed)


@lru_cache(maxsize=1024)
def _least_sums(periods: tuple[int, ...]) -> dict[int, int]:
    """The least sum of the sorted periods in each residue class modulo the
    smallest, for the classes that hold one (their Apéry set): the search of
    `closure_terms` on one letter."""
    guard = ("closure membership", "closure_member_states", CLOSURE_MEMBER_STATE_GUARD)
    classes = _minimal_offsets((0,), periods[:1], [(p,) for p in periods], guard)
    return {r: x for (r,), [(x,)] in classes.items()}


def _residue(x: Vector, mods: Vector) -> Vector:
    return tuple(map(operator.mod, x, mods))


def _minimal_offsets(
    base: Vector,
    mods: Vector,
    periods: Iterable[Vector],
    guard: tuple[str, str, int],
    bound: Optional[Vector] = None,
    goal: Optional[Callable[[Vector], bool]] = None,
) -> Optional[dict[Vector, list[Vector]]]:
    """The componentwise-minimal offsets of each residue class mod `mods`
    that base plus sums of periods reach, at or below `bound` if given, by
    the search that `closure_terms` proves; None as soon as an offset that
    meets `goal`, if given, joins.  guard is the label, name and limit of
    the guard that the offsets joining a class count towards."""
    if goal and goal(base):
        return None
    # sorted, so that the order of the classes depends on the steps alone
    steps = sorted(v for v in periods if any(map(operator.mod, v, mods)))
    classes = {_residue(base, mods): [base]}
    label, name, limit = guard
    # each offset joins once, so no two entries tie on (sum, offset)
    todo, joined = [(sum(base), base, classes[_residue(base, mods)])], 1
    while todo:
        _, x, held = heapq.heappop(todo)
        if x not in held:
            continue
        for v in steps:
            y = tuple(map(operator.add, x, v))
            if bound is not None and not all(map(operator.le, y, bound)):
                continue
            antichain = classes.setdefault(_residue(y, mods), [])
            if _add_minimal(antichain, y):
                if goal and goal(y):
                    return None
                joined += 1
                if joined > limit:
                    raise SizeGuardError.over(label, name, limit, joined)
                heapq.heappush(todo, (sum(y), y, antichain))
    return classes


def _add_minimal(antichain: list[Vector], x: Vector) -> bool:
    """Add x to a list of componentwise-incomparable vectors unless one of them
    lies at or below it, dropping those above it; returns whether x was
    added."""
    if any(all(map(operator.le, k, x)) for k in antichain):
        return False
    antichain[:] = [k for k in antichain if not all(map(operator.ge, k, x))]
    antichain.append(x)
    return True


def _words(alphabet: Alphabet, vectors: Iterable[Vector]) -> list[str]:
    return sorted(word_of(ParikhVector(alphabet, v)) for v in vectors)


def _certify_non_regular(u: DplUnion) -> None:
    """NonRegularError for the first sub-alphabet Γ, smallest first, with a
    letter x that occurs in u ∩ Γ* while no term of u ∩ Γ* gives it a unary
    period (a progression on x, or a base that only uses x).

    It proves sh*(u) not regular.  sh*(u) ∩ Γ* = sh*(u ∩ Γ*), whose fold has
    no period unary in x.  A recognizable monoid holding m with m_x > 0 holds
    n·m + j·P·e_x for some n, P and all j ≥ 0; infinitely many of these lie
    in one linear set of any finite union, which then has a unary x period.
    """
    letters = u.alphabet.letters
    for r in range(2, len(letters) + 1):
        for gamma in combinations(range(len(letters)), r):
            occurs, unary = set(), set()
            for t in u.terms:
                # in u ∩ Γ* the letters outside Γ must allow the count zero
                if all(in_count_set(0, s) for i, s in enumerate(t.sets) if i not in gamma):
                    base, periods = _term_linear(t)
                    for support in ({i for i, x in enumerate(p) if x} for p in periods | {base}):
                        if support <= set(gamma):
                            occurs |= support
                            unary |= support if len(support) == 1 else set()
            for i in sorted(occurs - unary):
                raise NonRegularError(
                    f"the iterated shuffle is not regular: letter {letters[i]!r} occurs in "
                    f"it over {{{','.join(letters[j] for j in gamma)}}} without a unary period",
                    letter=letters[i],
                    subalphabet=tuple(letters[j] for j in gamma),
                )


def _escapes(r: DplUnion, s: Linear) -> Optional[list[Vector]]:
    """The bases b + λ·W of the slices b + λ·W + ⟨U⟩ of s that r misses (W
    the non-unary periods of s, U the unary ones); None if infinitely many.

    The DFA of r walked here, built lazily, has as states the points of its
    count grid (`grid`), each in the same count sets as every vector that
    collapses to it.  A slice lies in r when its base leads to a good state,
    one from which unary steps reach only accepting states.  A bad state
    that a cycle of W-steps reaches is reached by infinitely many λ; with
    none, the λ that reach bad states pass no cycle, and the walk that stops
    at the cycles finds them.
    """
    limits = grid(r)
    base, periods = s
    # a step the other periods generate only repeats slices, and would make
    # the walk see infinitely many of them
    steps = [p for p in periods if not _is_unary(p) and not _in_monoid(p, periods - {p})]
    units = [p for p in periods if _is_unary(p)]

    def read(q: Vector, v: Vector) -> Vector:
        return tuple(map(collapse, map(operator.add, q, v), limits))

    start = read((0,) * len(base), base)
    edges: dict[Vector, list[Vector]] = {}
    _reach([start], lambda q: edges.setdefault(q, [read(q, w) for w in steps]))
    around = _reach(edges, lambda q: [read(q, g) for g in units])
    good = {q for q in around if any(all(map(in_count_set, q, t.sets)) for t in r.terms)}
    while shrink := {q for q in good if any(read(q, g) not in good for g in units)}:
        good -= shrink
    # peel off the states no edge enters, as in a topological sort: what
    # stays is what a cycle reaches
    indegree = Counter(n for ns in edges.values() for n in ns)
    acyclic, free = set(), [q for q in edges if not indegree[q]]
    while free:
        acyclic.add(q := free.pop())
        for n in edges[q]:
            indegree[n] -= 1
            if not indegree[n]:
                free.append(n)
    if not good >= edges.keys() - acyclic:
        return None
    out, seen, todo = [], {base}, [(base, start)]
    for v, q in todo:
        if q not in good:
            out.append(v)
        for w in steps:
            n, m = read(q, w), tuple(x + y for x, y in zip(v, w))
            if n in acyclic and m not in seen:
                seen.add(m)
                todo.append((m, n))
    return out


@dataclass(frozen=True)
class Closure:
    """The iterated shuffle of `union`, computed on first use and at most
    once per object: its fold of linear sets (`fold_linear_sets`), which
    answers membership (`union_closure_member`), and its normal form, which
    `union_iterated_shuffle` converts from that fold where terms are needed.
    A closure proven not regular, or undecided, has no normal form; reading
    one raises that error again."""

    union: DplUnion

    @property
    def alphabet(self) -> Alphabet:
        return self.union.alphabet

    @cached_property
    def linear_sets(self) -> list[Linear]:
        return fold_linear_sets(self.union)

    @cached_property
    def _normal_form(self) -> DplUnion | NonRegularError | UndecidedError:
        try:
            return union_iterated_shuffle(self)
        except (NonRegularError, UndecidedError) as err:
            return err

    @property
    def normal_form(self) -> DplUnion:
        """The closure as a union of terms, or the error that it has none."""
        if isinstance(nf := self._normal_form, DplUnion):
            return nf
        raise nf


def union_iterated_shuffle(closure: Closure) -> DplUnion:
    """A closure's normal form, exact or with a proof that it is not regular;
    `Closure.normal_form` keeps it.

    The recognizable linear sets of the fold convert to terms by
    `closure_terms`.  If some are not, `_certify_non_regular` raises
    `NonRegularError` when it applies; otherwise each of them is walked on a
    DFA of the converted part (`_escapes`), and its finitely many escaping
    slices join the result, or `UndecidedError` names it.  No term of the
    result lies in another.
    """
    alphabet = closure.alphabet
    sets = closure.linear_sets  # the recognizable ones first
    split = next((i for i, s in enumerate(sets) if not _recognizable(s)), len(sets))
    converted, rest = sets[:split], sets[split:]
    if rest:
        _certify_non_regular(closure.union)
    regular = DplUnion.of(alphabet, [t for s in converted for t in closure_terms(alphabet, *s)])
    if len(converted) > 1:  # one set's terms already form an antichain
        regular = maximal_terms(regular)
    terms = list(regular.terms)
    for s in rest:
        escapes = _escapes(regular, s)
        if escapes is None:
            raise UndecidedError(
                f"iterated shuffle undecided: the linear set {_words(alphabet, [s[0]])[0] or 'ε'}"
                f" + ⟨{', '.join(_words(alphabet, s[1]))}⟩ is not absorbed by the regular part"
            )
        units = frozenset(p for p in s[1] if _is_unary(p))
        terms += [t for v in escapes for t in closure_terms(alphabet, v, units)]
    return maximal_terms(DplUnion.of(alphabet, terms)) if rest else regular


def union_closure_member(counts: Vector, closure: Closure) -> bool:
    """Exact membership of a count vector in a closure: whether it lies in a
    linear set b + ⟨P⟩ of the closure's fold, that is, counts - b is a sum of
    periods."""
    return any(_in_monoid(_minus(counts, b), p) for b, p in closure.linear_sets)
