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
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, count, product
from typing import Iterable, Iterator, Optional, Sequence

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
from .progressions import Progression, semigroup_elements
from .words import Alphabet, ParikhVector, word_of

# Linear sets one fold step may hold before pruning: n terms give up to 2^n.
CLOSURE_LINEAR_SET_GUARD = 2048
# Vectors one search may visit: remainders of a monoid membership test (about
# n² for counts near n in the closure of {ab, bc}) or states of a walk.
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


# Per letter with unary generators: its index, their gcd g, the count from
# which every multiple of g is a sum of them, and (w_y, s_w) for each walked
# generator w with w_y > 0, s_w its total on the letters without one.
Caps = tuple[tuple[int, int, int, tuple[tuple[int, int], ...]], ...]
# A non-unary generator and how many times at most the search takes it off
# (None: as often as the remainder allows).
Stage = tuple[Vector, Optional[int]]


@lru_cache(maxsize=1024)
def _split(gens: frozenset[Vector], n: int) -> tuple[
    tuple[tuple[int, ...], ...], tuple[Stage, ...], int, tuple[int, ...], Caps
]:
    """How `_in_monoid` searches gens, over n letters: per letter, the
    sorted counts of the unary generators on it; the stages, one per
    non-unary generator but those of order 1 (sums of unary ones), in the
    order the search takes them; the index of the first stage whose
    generator has a letter without a unary generator, a bare letter; the
    bare letters; and the caps of `_cap`."""
    units: list[set[int]] = [set() for _ in range(n)]
    mixed = []
    for g in gens:
        (i, x), *more = [(i, x) for i, x in enumerate(g) if x]
        if more:
            mixed.append(g)
        else:
            units[i].add(x)
    sums = tuple(tuple(sorted(u)) for u in units)
    bounded, walked = [], []
    for g in mixed:
        if all(units[i] for i, x in enumerate(g) if x):
            order = math.lcm(
                *(min(m // math.gcd(m, x) for m in units[i]) for i, x in enumerate(g) if x)
            )
            if order > 1:
                bounded.append((g, order))
        else:
            walked.append(g)
    bare = tuple(i for i in range(n) if not units[i])
    caps = []
    for y, u in enumerate(units):
        if u:
            g, lo, hi = math.gcd(*u), min(u), max(u)
            least = (lo // g - 1) * (hi // g - 1) * g if len(u) > 1 else 0
            takes = tuple((w[y], sum(w[x] for x in bare)) for w in walked if w[y])
            caps.append((y, g, least, takes))
    stages = (*bounded, *((w, None) for w in sorted(walked)))
    return sums, stages, len(bounded), bare, tuple(caps)


@lru_cache(maxsize=256)
def _small_sums(periods: tuple[int, ...], limit: int) -> frozenset[int]:
    """The sums of the periods below limit."""
    return frozenset(semigroup_elements(periods, limit))


def _sum_of(x: int, periods: tuple[int, ...]) -> bool:
    """Whether the count x >= 0 is a sum of the sorted periods (none: x = 0).

    With g their gcd, x must be a multiple of g, and x/g a sum of the periods
    divided by g.  Every number from (p_min/g - 1)(p_max/g - 1) on is one
    (Schur's bound on the Frobenius number); below it, the semigroup's
    elements listed up to that bound say.
    """
    if len(periods) < 2:
        return x % periods[0] == 0 if periods else x == 0
    g = math.gcd(*periods)
    if x % g:
        return False
    x //= g
    schur = (periods[0] // g - 1) * (periods[-1] // g - 1)
    return x >= schur or x in _small_sums(tuple(p // g for p in periods), schur)


def _fewer_than(r: Vector, g: Vector, limit: Optional[int]) -> Iterator[Vector]:
    """r less j copies of g, for 0 <= j < limit (any j if None), while that
    stays >= 0."""
    for _ in range(limit) if limit else count():
        yield r
        r = _minus(r, g)
        if min(r) < 0:
            return


def _cap(r: Vector, bare: tuple[int, ...], caps: Caps) -> Vector:
    """r with each count that the walk cannot bring below the point where
    only its residue matters lowered to the least such count of that
    residue (`_in_monoid`)."""
    left = sum(r[x] for x in bare)
    out = list(r)
    for y, g, least, takes in caps:
        c = least + max((left * wy // sw for wy, sw in takes), default=0)
        if out[y] > c:
            out[y] = c + (out[y] - c) % g
    return tuple(out)


def _in_monoid(d: Vector, gens: frozenset[Vector]) -> bool:
    """Whether d is a sum of vectors of gens (non-zero, non-negative).

    The generators split into unary ones, non-zero on one letter, and the
    rest.  A remainder is finished when each of its counts is a sum of that
    letter's unary generators, or 0 on a letter without one (a bare letter).
    A count is tested by arithmetic (`_sum_of`): a multiple of the periods'
    gcd g is a sum of them from Schur's bound S = g(p_min/g - 1)(p_max/g - 1)
    on, and below it a table of the sums under that bound says; no table
    grows with d.  The search takes the non-unary generators off d, one
    after the other in stages (`_split`), each as many times as it may, and
    stops at the first finished remainder: a finished d answers at once.
    A state is a remainder and the index of its next stage, and every state
    found counts towards the closure_member_states guard.

    A non-unary v whose letters all have a unary generator is used fewer
    than ord_v = lcm_a m_a / gcd(m_a, v_a) times, over its letters a, with
    m_a the unary generator of a that makes m_a / gcd(m_a, v_a) least.
    Proof: ord_v is a multiple of m_a / gcd(m_a, v_a), so ord_v · v_a is a
    multiple of m_a, and ord_v · v is a sum of unary generators.  In a sum
    equal to d that uses v at least ord_v times, ord_v copies of v can
    therefore be traded for unary generators, until fewer remain; so d is
    in the monoid exactly when some sum with fewer than ord_v copies of
    each such v gives it.  These stages come first, and at most ∏ ord_v
    remainders leave them.  Each other non-unary generator w has a bare
    letter, and is taken off as often as the remainder allows.

    A remainder r can also be lowered on a letter y with unary generators.
    With L the sum of r on the bare letters, the generators with a bare
    letter are taken off r n_w times with Σ n_w s_w <= L (s_w > 0 the sum
    of w on them), so they take at most T_y = max_w ⌊L w_y / s_w⌋ off y.
    Once those stages are reached and r_y >= c = S_y + T_y, every remainder
    the search reaches from r has a count >= S_y on y, which is a sum
    exactly when g_y divides it; so r_y can be lowered to
    c + (r_y - c) mod g_y without changing which remainders can follow or
    which of them finish (`_cap`).  After that the counts on y stay below
    S_y + T_y + g_y, and the remainders depend only on the bare counts.
    """
    if not any(d) or d in gens:
        return True
    if min(d) < 0:
        return False
    units, stages, first_walked, bare, caps = _split(gens, len(d))
    if not stages:
        return all(map(_sum_of, d, units))

    def steps(state: tuple[Vector, int]) -> Iterator[tuple[Vector, int]]:
        r, i = state
        if i < len(stages):
            for n in _fewer_than(r, *stages[i]):
                yield (_cap(n, bare, caps) if i + 1 >= first_walked else n), i + 1

    start = (_cap(d, bare, caps) if first_walked == 0 else d), 0
    return any(all(map(_sum_of, r, units)) for r, _ in _walk([start], steps))


def _term_linear(t: DiagonalPeriodic) -> Linear:
    """A term as b + ⟨p_a·e_a⟩: offsets and exact counts make the base, and
    each progression gives a unary period."""
    base = tuple(s.offset if isinstance(s, Progression) else s for s in t.sets)
    units = [(i, s.period) for i, s in enumerate(t.sets) if isinstance(s, Progression)]
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
    # the recognizable sets first: a membership test searches them within
    # bounds that do not grow with the vector (`_in_monoid`)
    return sorted(sets, key=lambda s: not _recognizable(s))


def _recognizable(s: Linear) -> bool:
    """Every letter of a non-unary period also has a unary period."""
    unary = {i for p in s[1] if _is_unary(p) for i, x in enumerate(p) if x}
    return all(i in unary for p in s[1] for i, x in enumerate(p) if x)


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

    The minimal offsets are found by a search over the residue classes,
    each holding the antichain of the least offsets found in it so far.
    From the base, it takes offsets up in order of their coordinate sum,
    skipping one dropped since it joined its class, and adds each step to
    each; a sum joins its class (`_add_minimal`) unless an offset there lies
    at or below it, and drops those above it.  The antichains end as exactly
    the minimal offsets:
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
    """
    periods = {p for p in periods if any(p)}
    unary: dict[int, int] = {}
    for p in periods:
        (i, x), *more = [(i, x) for i, x in enumerate(p) if x]
        if not more:
            unary[i] = min(unary.get(i, x), x)
    # modulus one leaves a letter without a unary period at its base count
    mods = tuple(unary.get(i, 1) for i in range(len(alphabet)))
    # sorted, so that the order of the terms depends on the steps alone
    steps = sorted(v for v in periods if any(map(operator.mod, v, mods)))

    def residue(x: Vector) -> Vector:
        return tuple(map(operator.mod, x, mods))

    base = tuple(base)
    classes = {residue(base): [base]}
    todo, joined = [(sum(base), base)], 1
    while todo:
        _, x = heapq.heappop(todo)
        if x not in classes[residue(x)]:
            continue
        for v in steps:
            y = tuple(map(operator.add, x, v))
            if _add_minimal(classes.setdefault(residue(y), []), y):
                joined += 1
                if joined > REPRESENTATION_OFFSET_GUARD:
                    raise SizeGuardError.over(
                        "representation", "representation_offsets",
                        REPRESENTATION_OFFSET_GUARD, joined,
                    )
                heapq.heappush(todo, (sum(y), y))
    periodic = [i in unary for i in range(len(mods))]
    return tuple(
        DiagonalPeriodic(
            alphabet, tuple(Progression(y, m) if f else y for f, y, m in zip(periodic, o, mods))
        )
        for offsets in classes.values()
        for o in offsets
    )


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
    count grid (`grid`).  A slice lies in r when its base leads to a good
    state, one from which unary steps reach only accepting states.  A bad
    state that a cycle of W-steps reaches is reached by infinitely many λ;
    with none, the λ that reach bad states pass no cycle, and the walk that
    stops at the cycles finds them.
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
    converted = [s for s in closure.linear_sets if _recognizable(s)]
    rest = [s for s in closure.linear_sets if not _recognizable(s)]
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
