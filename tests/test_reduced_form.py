"""The reduced normal form: the iterated shuffle and the shuffle-closure
representation keep no term that another one contains, and say exactly what
the unpruned constructions say."""

import math
import operator
import random
import time
from functools import reduce
from itertools import product

import pytest

from comshuffle import aperiodic
from comshuffle.aperiodic import (
    REPRESENTATION_OFFSET_GUARD,
    Closure,
    closure_terms,
    fold_linear_sets,
)
from comshuffle.automata import dpl_to_dfa, equivalence_witness, minimize
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    count_set_subset,
    dpl_iterated_shuffle,
    dpl_shuffle,
    maximal_terms,
    term_subset,
)
from comshuffle.progressions import Progression
from comshuffle.oracle import VectorSet, closure_under_addition, dpl_enumerate
from comshuffle.errors import SizeGuardError
from comshuffle.regularity import FiniteLang, build_representation
from comshuffle.words import Alphabet, ParikhVector, parikh

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def reference_iterated_shuffle(u: DplUnion) -> DplUnion:
    """The unpruned fold: each term iterated up to the lcm of its periods."""
    result = DplUnion.epsilon(u.alphabet)
    for t in u.terms:
        n = reduce(math.lcm, (s.period for s in t.sets if isinstance(s, Progression)), 1)
        powers = [DiagonalPeriodic.epsilon(u.alphabet)] + [
            DiagonalPeriodic(
                u.alphabet,
                tuple(
                    Progression(i * s.offset, s.period) if isinstance(s, Progression) else 0
                    for s in t.sets
                ),
            )
            for i in range(1, n + 1)
        ]
        result = dpl_shuffle(result, DplUnion.of(u.alphabet, powers))
    return result


def reference_representation(lang: FiniteLang) -> DplUnion:
    """{ε} plus one term per coefficient vector in [0, prod m_a)^|rest|."""
    words = [w for w in lang.words if w]
    selected = {}
    for a in lang.occurring_letters():
        unary = [w for w in words if set(w) == {a}]
        selected[a] = min(unary, key=lambda w: (len(w), words.index(w)))
    bound = math.prod(len(w) for w in selected.values())
    rest = [parikh(w, lang.alphabet).counts for w in words if w not in set(selected.values())]
    terms = [DiagonalPeriodic.epsilon(lang.alphabet)]
    for coeffs in product(range(bound), repeat=len(rest)):
        offset = [sum(c * v[i] for c, v in zip(coeffs, rest)) for i in range(len(lang.alphabet))]
        progs = {
            a: Progression(offset[lang.alphabet.index(a)], len(w)) for a, w in selected.items()
        }
        terms.append(DiagonalPeriodic.make(lang.alphabet, progs))
    return DplUnion.of(lang.alphabet, terms)


def random_union(rng: random.Random, alphabet: Alphabet, size: int, top: int) -> DplUnion:
    """Up to `size` terms with offsets below `top` and periods up to it; the
    unpruned reference grows fast with each, so three letters get less."""
    terms = []
    for _ in range(rng.randint(1, size)):
        progs = {}
        for a in alphabet:
            if rng.random() < 0.7:
                progs[a] = Progression(rng.randint(0, top - 1), rng.randint(1, top))
        terms.append(DiagonalPeriodic.make(alphabet, progs))
    return DplUnion.of(alphabet, terms)


def random_lang(rng: random.Random, alphabet: Alphabet, top: int) -> FiniteLang:
    """Unary words up to length `top`: the reference builds (prod m_a)^|rest| terms."""
    occurring = rng.sample(alphabet.letters, rng.randint(1, len(alphabet)))
    words = [a * rng.randint(1, top) for a in occurring]
    for _ in range(rng.randint(0, 2)):
        words.append("".join(rng.choice(occurring) for _ in range(rng.randint(2, 3))))
    return FiniteLang.of(alphabet, words)


def assert_antichain(u: DplUnion):
    for t1 in u.terms:
        for t2 in u.terms:
            assert t1 == t2 or not term_subset(t1, t2), (t1, t2)


def assert_equivalent(u1: DplUnion, u2: DplUnion):
    assert equivalence_witness(dpl_to_dfa(u1), dpl_to_dfa(u2)) is None


P = Progression


@pytest.mark.parametrize(
    "s1, s2, expected",
    [
        (P(3, 4), P(1, 2), True),  # period 2 | 4 and 3 lies in 1 + 2N
        (P(3, 4), P(0, 2), False),  # offset 3 is odd
        (P(3, 2), P(1, 4), False),  # period 4 does not divide 2
        (P(1, 3), P(3, 1), False),  # offset 1 below 3
        (P(2, 5), P(2, 5), True),
        (P(2, 5), 2, False),  # a progression is never an exact count
        (P(0, 1), 0, False),
        (3, P(1, 2), True),
        (4, P(1, 2), False),
        (0, P(1, 1), False),
        (2, 2, True),
        (2, 3, False),
    ],
)
def test_count_set_subset_on_all_kind_pairs(s1, s2, expected):
    assert count_set_subset(s1, s2) is expected


def test_iterated_shuffle_is_the_unpruned_fold_without_dominated_terms():
    rng = random.Random(61)
    for alphabet, size, top in ((AB, 3, 4), (AB, 3, 4), (ABC, 2, 3)):
        for _ in range(12):
            u = random_union(rng, alphabet, size, top)
            got = dpl_iterated_shuffle(u)
            assert_antichain(got)
            assert_equivalent(got, reference_iterated_shuffle(u))


def test_representation_is_the_unpruned_loop_without_dominated_terms():
    rng = random.Random(67)
    for alphabet, top in ((AB, 3), (AB, 3), (ABC, 2)):
        for _ in range(15):
            lang = random_lang(rng, alphabet, top)
            got = build_representation(lang)
            assert_antichain(got)
            assert_equivalent(got, reference_representation(lang))


def random_linear_set(rng: random.Random, alphabet: Alphabet, top: int):
    """A recognizable b + ⟨P⟩ with a nonzero base: some letters get one or two
    unary periods, the others none, and the non-unary periods use only the
    first ones, so the others keep their base count."""
    n = len(alphabet)
    periodic = [i for i in range(n) if rng.random() < 0.7]
    periods = [
        tuple(rng.randint(1, top) if j == i else 0 for j in range(n))
        for i in periodic
        for _ in range(rng.randint(1, 2))
    ]
    for _ in range(rng.randint(0, 2) if periodic else 0):
        periods.append(tuple(rng.randint(0, 2) if i in periodic else 0 for i in range(n)))
    base = (0,) * n
    while not any(base):
        base = tuple(rng.randint(0, top) for _ in range(n))
    return base, periods


def test_closure_terms_are_the_shifted_closure_without_dominated_terms():
    rng = random.Random(71)
    for alphabet, bound in ((AB, 14), (AB, 14), (ABC, 9)):
        for _ in range(15):
            base, periods = random_linear_set(rng, alphabet, 3)
            got = DplUnion(alphabet, closure_terms(alphabet, base, periods))
            assert_antichain(got)
            gens = VectorSet(alphabet, frozenset(ParikhVector(alphabet, p) for p in periods), bound)
            shift = ParikhVector(alphabet, base)
            expected = {
                w for v in closure_under_addition(gens, bound).vectors
                if (w := v + shift).total() <= bound
            }
            assert dpl_enumerate(got, bound).vectors == expected, (base, periods)


def random_mixed_union(rng: random.Random, alphabet: Alphabet, size: int) -> DplUnion:
    """Terms of small progressions and exact counts, so that many contain
    others."""
    def count_set():
        k = rng.randint(0, 3)
        return k if rng.random() < 0.3 else P(k, rng.choice([1, 2, 4]))

    terms = [DiagonalPeriodic(alphabet, tuple(count_set() for _ in alphabet)) for _ in range(size)]
    return DplUnion.of(alphabet, terms)


def test_maximal_terms_is_the_pairwise_pruning_in_input_order():
    rng = random.Random(24)
    dropped = kept_all = 0
    for alphabet in (AB, AB, ABC):
        for _ in range(60):
            u = random_mixed_union(rng, alphabet, rng.randint(1, 12))
            expected = tuple(
                t for t in u.terms if not any(s != t and term_subset(t, s) for s in u.terms)
            )
            got = maximal_terms(u)
            assert got.terms == expected
            if expected == u.terms:
                assert got is u
                kept_all += 1
            else:
                dropped += 1
    assert dropped > 20 and kept_all > 20


def test_closure_terms_skip_a_period_of_order_one(monkeypatch):
    calls = []
    add_minimal = aperiodic._add_minimal

    def spy(antichain, x):
        calls.append(x)
        return add_minimal(antichain, x)

    monkeypatch.setattr(aperiodic, "_add_minimal", spy)
    # (2, 3) adds a multiple of the unary periods (2, 0) and (0, 3) to each letter
    periods = {(2, 0), (0, 3), (1, 1)}
    without = closure_terms(AB, (1, 0), periods)
    added = len(calls)
    assert added > 0
    assert closure_terms(AB, (1, 0), periods | {(2, 3)}) == without
    assert len(calls) == 2 * added
    rng = random.Random(73)
    for alphabet in (AB, ABC):
        for _ in range(20):
            base, periods = random_linear_set(rng, alphabet, 3)
            mods = {}
            for p in filter(any, periods):
                (i, x), *more = [(i, x) for i, x in enumerate(p) if x]
                if not more:
                    mods[i] = min(mods.get(i, x), x)
            v = tuple(mods[i] * rng.randint(1, 3) if i in mods else 0 for i in range(len(alphabet)))
            if any(v):
                assert closure_terms(alphabet, base, {*periods, v}) == closure_terms(
                    alphabet, base, periods
                ), (base, periods, v)


def reference_closure_terms(alphabet, base, periods):
    """The fold that `closure_terms` replaced, kept verbatim as its
    reference: each non-unary period v, but those of order one, is added
    c < ord_v times to every offset kept so far, ord_v = lcm of
    m_a / gcd(m_a, v_a); of the offsets in one residue class only the
    componentwise-minimal ones stay."""
    periods = {p for p in periods if any(p)}
    unary: dict[int, int] = {}
    for p in periods:
        (i, x), *more = [(i, x) for i, x in enumerate(p) if x]
        if not more:
            unary[i] = min(unary.get(i, x), x)
    # modulus one leaves a letter without a unary period at its base count
    mods = tuple(unary.get(i, 1) for i in range(len(alphabet)))
    selected = {tuple(m if j == i else 0 for j in range(len(mods))) for i, m in unary.items()}
    classes = {tuple(y % m for y, m in zip(base, mods)): [tuple(base)]}
    for v in sorted(periods - selected):
        order = reduce(math.lcm, (m // math.gcd(m, x) for m, x in zip(mods, v)), 1)
        if order == 1:
            continue
        folded: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        kept = 0
        for offsets in classes.values():
            for o in offsets:
                x = o
                for _ in range(order):
                    residue = tuple(map(operator.mod, x, mods))
                    kept += reference_add_minimal(folded.setdefault(residue, []), x)
                    if kept > REPRESENTATION_OFFSET_GUARD:
                        raise SizeGuardError(
                            f"representation guard exceeded: more than "
                            f"{REPRESENTATION_OFFSET_GUARD} kept offsets",
                            guard="representation_offsets",
                            limit=REPRESENTATION_OFFSET_GUARD,
                            observed=kept,
                        )
                    x = tuple(map(operator.add, x, v))
        classes = folded
    periodic = [i in unary for i in range(len(mods))]
    return tuple(
        DiagonalPeriodic(
            alphabet, tuple(Progression(y, m) if f else y for f, y, m in zip(periodic, o, mods))
        )
        for offsets in classes.values()
        for o in offsets
    )


def reference_add_minimal(antichain, x):
    """Add x to a list of componentwise-incomparable vectors unless one of them
    lies below it, dropping those above it; returns the change in length."""
    if any(all(map(operator.le, k, x)) for k in antichain):
        return 0
    before = len(antichain)
    antichain[:] = [k for k in antichain if not all(map(operator.ge, k, x))]
    antichain.append(x)
    return len(antichain) - before


def probe_union(p: int, q: int) -> DplUnion:
    """perm(ab) | perm(aab) | {a^p} | {b^q}."""
    points = ((1, 1), (2, 1), (p, 0), (0, q))
    return DplUnion.of(AB, [DiagonalPeriodic.perm_shuffle(ParikhVector(AB, v)) for v in points])


def recognizable_fold(p: int, q: int):
    """The recognizable linear sets of the fold of sh*(`probe_union(p, q)`)."""
    return [s for s in fold_linear_sets(probe_union(p, q)) if aperiodic._recognizable(s)]


def test_closure_terms_are_the_terms_of_the_reference_fold():
    rng = random.Random(79)
    cases = [(AB, *random_linear_set(rng, AB, 4)) for _ in range(150)]
    cases += [(ABC, *random_linear_set(rng, ABC, 3)) for _ in range(150)]
    cases += [(AB, *s) for p, q in ((11, 13), (23, 29), (31, 37)) for s in recognizable_fold(p, q)]
    for alphabet, base, periods in cases:
        expected = set(reference_closure_terms(alphabet, base, periods))
        assert set(closure_terms(alphabet, base, periods)) == expected, (base, periods)


def test_closure_terms_of_a_large_residue_group_are_fast_and_guarded(monkeypatch):
    # 97 · 89 = 8633 residue classes; the fold took minutes here
    sets = recognizable_fold(97, 89)
    start = time.perf_counter()
    assert sum(len(closure_terms(AB, *s)) for s in sets) == 17267
    assert time.perf_counter() - start < 2
    monkeypatch.setattr(aperiodic, "REPRESENTATION_OFFSET_GUARD", 1000)
    start = time.perf_counter()
    with pytest.raises(SizeGuardError) as err:
        for s in sets:
            closure_terms(AB, *s)
    assert time.perf_counter() - start < 1
    assert (err.value.guard, err.value.observed) == ("representation_offsets", 1001)


def test_normal_form_of_a_large_residue_group_is_fast():
    # maximal_terms tests each of the 17267 converted terms only against the
    # kept terms of its residue class, not against every kept term
    start = time.perf_counter()
    assert len(Closure(probe_union(97, 89)).normal_form.terms) == 8633
    assert time.perf_counter() - start < 2


def test_three_term_closure_compiles_and_minimizes_fast():
    u = DplUnion.of(ABC, [
        DiagonalPeriodic.make(ABC, {"a": P(3, 2), "b": P(0, 2)}),
        DiagonalPeriodic.make(ABC, {"b": P(1, 3), "c": P(1, 2)}),
        DiagonalPeriodic.make(ABC, {"a": P(1, 4), "b": P(2, 4), "c": P(1, 3)}),
    ])
    start = time.perf_counter()
    m = minimize(dpl_to_dfa(dpl_iterated_shuffle(u)))
    assert time.perf_counter() - start < 5
    assert m.n_states == 473


def test_five_word_representation_has_one_term_per_residue_class():
    rep = build_representation(FiniteLang.of(AB, ["aaaaa", "bbbbb", "ab", "aab", "abb"]))
    assert len(rep.terms) <= 25
