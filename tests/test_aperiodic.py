import random

import pytest

from comshuffle import aperiodic
from comshuffle.aperiodic import (
    Closure,
    IntervalConstraint,
    aperiodic_union_from_dict,
    aperiodic_union_to_dict,
    intervals_to_terms,
    term_iterated_shuffle_normal_form,
    union_closure_member,
    union_member,
    union_project,
    union_shuffle,
)
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    dpl_member,
    dpl_union_member,
    dpl_union_to_dict,
)
from comshuffle.errors import CriterionError, NonRegularError, SizeGuardError
from comshuffle.oracle import (
    VectorSet,
    all_vectors,
    closure_under_addition,
    predicate_enumerate,
    sets_equal,
)
from comshuffle.progressions import Progression
from comshuffle.words import Alphabet, parikh

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def term(alphabet, word, tail=""):
    return DiagonalPeriodic.perm_shuffle(parikh(word, alphabet), tail)


def closure_window(u: DplUnion, bound: int) -> VectorSet:
    base = predicate_enumerate(lambda v: union_member(v, u), u.alphabet, bound)
    return closure_under_addition(base, bound)


def test_term_member():
    t = term(AB, "ab", "a")
    assert dpl_member(parikh("ab", AB), t)
    assert dpl_member(parikh("aab", AB), t)
    assert not dpl_member(parikh("abb", AB), t)
    assert not dpl_member(parikh("a", AB), t)


def test_intervals_to_terms_matches_predicate():
    u = intervals_to_terms(
        [IntervalConstraint("a", 1, 3), IntervalConstraint("b", 2, None)], AB
    )
    for v in all_vectors(AB, 8):
        expected = 1 <= v["a"] < 3 and v["b"] >= 2
        assert union_member(v, u) == expected


def test_intervals_to_terms_unconstrained_letter_is_free():
    u = intervals_to_terms([IntervalConstraint("a", 1, 2)], AB)
    assert union_member(parikh("a", AB), u)
    assert union_member(parikh("abb", AB), u)
    assert not union_member(parikh("aa", AB), u)


def test_union_project():
    u = DplUnion.of(ABC, [term(ABC, "ac", "b")])
    p = union_project(u, "ab")
    ab = Alphabet.of("ab")
    assert union_member(parikh("ab", ab), p)
    assert not union_member(parikh("b", ab), p)


def test_union_shuffle_adds_bases_and_joins_tails():
    u1 = DplUnion.of(AB, [term(AB, "a", "a")])
    u2 = DplUnion.of(AB, [term(AB, "b", "b")])
    s = union_shuffle(u1, u2)
    for v in all_vectors(AB, 8):
        assert union_member(v, s) == (v["a"] >= 1 and v["b"] >= 1)


def test_iterated_shuffle_criterion():
    for t in (term(AB, "aa"), term(AB, "ab", "ab"), term(AB, "", "a")):
        Closure(DplUnion.of(AB, [t])).normal_form
    for t in (term(AB, "ab"), term(AB, "ab", "a")):
        with pytest.raises(NonRegularError):
            Closure(DplUnion.of(AB, [t])).normal_form


def test_term_normal_form_unary_base():
    nf = term_iterated_shuffle_normal_form(term(AB, "aa"))
    for v in all_vectors(AB, 10):
        assert dpl_union_member(v, nf) == (v["a"] % 2 == 0 and v["b"] == 0)


def test_term_normal_form_base_inside_tail():
    t = term(AB, "ab", "ab")
    nf = term_iterated_shuffle_normal_form(t)
    for v in all_vectors(AB, 10):
        expected = v.total() == 0 or (v["a"] >= 1 and v["b"] >= 1)
        assert dpl_union_member(v, nf) == expected


def test_term_normal_form_matches_closure_oracle():
    cases = [term(AB, "aa", "b"), term(AB, "", "ab"), term(AB, "bb"), term(AB, "a", "a")]
    for t in cases:
        nf = term_iterated_shuffle_normal_form(t)
        got = predicate_enumerate(lambda v: dpl_union_member(v, nf), AB, 9)
        expected = closure_window(DplUnion.of(AB, [t]), 9)
        ok, cex = sets_equal(got, expected)
        assert ok, f"{t} disagrees at {cex.as_dict() if cex else None}"


def test_term_normal_form_refuses_failing_criterion():
    with pytest.raises(CriterionError) as err:
        term_iterated_shuffle_normal_form(term(AB, "ab", "a"))
    assert err.value.letter == "b"


def test_union_closure_member_matches_oracle():
    unions = [
        (DplUnion.of(AB, [term(AB, "ab"), term(AB, "a", "a")]), 10),
        # c* has the zero base: using it only frees the letter c
        (DplUnion.of(ABC, [term(ABC, "ab"), term(ABC, "", "c"), term(ABC, "bcc")]), 8),
    ]
    for u, bound in unions:
        expected = closure_window(u, bound)
        closure = Closure(u)
        got = predicate_enumerate(
            lambda v: union_closure_member(v.counts, closure), u.alphabet, bound
        )
        ok, cex = sets_equal(got, expected)
        assert ok, f"disagree at {cex.as_dict() if cex else None}"


def test_union_closure_member_state_guard(monkeypatch):
    # a^n b^(2n+1) c^n is not in the closure of {ab, bc}: no letter has a
    # unary period, so the search keeps about n² offsets before it can say so
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 50)
    u = DplUnion.of(ABC, [term(ABC, "ab"), term(ABC, "bc")])
    closure = Closure(u)
    assert union_closure_member(parikh("aabbbbcc", ABC).counts, closure)
    with pytest.raises(SizeGuardError) as err:
        union_closure_member(parikh("a" * 10 + "b" * 21 + "c" * 10, ABC).counts, closure)
    assert err.value.guard == "closure_member_states"
    assert err.value.limit == 50
    assert err.value.observed > 50


def test_union_iterated_shuffle_simple_union():
    u = DplUnion.of(AB, [term(AB, "a"), term(AB, "bb")])
    closure = Closure(u).normal_form
    got = predicate_enumerate(lambda v: dpl_union_member(v, closure), AB, 10)
    expected = closure_window(u, 10)
    ok, cex = sets_equal(got, expected)
    assert ok, f"disagree at {cex.as_dict() if cex else None}"


def test_union_iterated_shuffle_undecided_for_equal_counts():
    u = DplUnion.of(AB, [term(AB, "ab")])
    with pytest.raises(NonRegularError) as err:
        Closure(u).normal_form
    assert (err.value.letter, err.value.subalphabet) == ("a", ("a", "b"))


def test_union_iterated_shuffle_term_guard(monkeypatch):
    # two terms with a progression already give four linear sets before pruning
    monkeypatch.setattr(aperiodic, "CLOSURE_LINEAR_SET_GUARD", 3)
    terms = [term(AB, "a", "b"), term(AB, "aa", "b"), term(AB, "ab")]
    with pytest.raises(SizeGuardError) as err:
        Closure(DplUnion.of(AB, terms)).normal_form
    assert err.value.guard == "closure_linear_sets"
    assert err.value.limit == 3
    assert err.value.observed == 4


def test_serialization_round_trip():
    u = DplUnion.of(ABC, [term(ABC, "ab", "c"), term(ABC, "c", "ab")])
    back = aperiodic_union_from_dict(aperiodic_union_to_dict(u))
    assert dpl_union_to_dict(back) == dpl_union_to_dict(u)
    for v in all_vectors(ABC, 5):
        assert union_member(v, back) == union_member(v, u)


def monoid_box(top, gens):
    """{0} closed under adding generators inside the box [0, top]."""
    box = {(0,) * len(top)}
    todo = list(box)
    while todo:
        r = todo.pop()
        for g in gens:
            n = tuple(x + y for x, y in zip(r, g))
            if all(x <= y for x, y in zip(n, top)) and n not in box:
                box.add(n)
                todo.append(n)
    return box


def monoid_reference(d, gens):
    return min(d) >= 0 and tuple(d) in monoid_box(d, gens)


def random_generators(rng, n):
    """Unary and non-unary periods over n letters; one letter may get
    several unary periods, such as {2, 3} or {4, 6}."""
    gens = set()
    for i in range(n):
        for p in rng.choice([(), (1,), (2,), (3,), (2, 3), (4, 6), (3, 5, 7), (6, 9)]):
            gens.add(tuple(p if j == i else 0 for j in range(n)))
    for _ in range(rng.randint(0, 3)):
        g = tuple(rng.randint(0, 3) for _ in range(n))
        if sum(1 for x in g if x) > 1 or rng.random() < 0.3 and any(g):
            gens.add(g)
    return frozenset(gens)


def test_in_monoid_agrees_with_the_box_closure():
    rng = random.Random(24)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 3)
        gens = random_generators(rng, n)
        cases = [(0,) * n, *gens, *(tuple(rng.randint(-2, 14) for _ in range(n)) for _ in range(6))]
        # the unary generators alone leave the search no step
        for g in (gens, frozenset(filter(aperiodic._is_unary, gens))):
            for d in cases:
                assert aperiodic._in_monoid(d, g) == monoid_reference(d, g), (d, sorted(g))
                checked += 1
    assert checked > 2000
    # larger counts, with a letter that has no unary period and a generator
    # that uses it: one box up to the largest counts answers every d below
    for _ in range(40):
        n = rng.randint(1, 3)
        bare = rng.randrange(n)
        gens = {g for g in random_generators(rng, n) if g[bare] == 0 or g[bare] != sum(g)}
        gens.add(tuple(rng.randint(1, 3) if i == bare else rng.randint(0, 2) for i in range(n)))
        top = tuple(rng.randint(25, 40) for _ in range(n))
        box = monoid_box(top, gens)
        for d in [top, *(tuple(rng.randint(0, x) for x in top) for _ in range(20))]:
            assert aperiodic._in_monoid(d, frozenset(gens)) == (d in box), (d, sorted(gens))


def test_recognizable_agrees_with_the_letter_sets():
    def by_letter_sets(s):
        # the letters of the unary periods cover those of all periods
        unary = {i for p in s[1] if aperiodic._is_unary(p) for i, x in enumerate(p) if x}
        return all(i in unary for p in s[1] for i, x in enumerate(p) if x)

    rng = random.Random(30)
    kinds = set()
    for _ in range(500):
        base = tuple(rng.randint(0, 3) for _ in "abc")
        periods = {tuple(rng.choice((0, 0, 1, 2)) for _ in "abc") for _ in range(rng.randint(0, 4))}
        s = (base, frozenset(p for p in periods if any(p)))
        kinds.add(aperiodic._recognizable(s))
        assert aperiodic._recognizable(s) == by_letter_sets(s), s
    assert kinds == {True, False}


def test_in_monoid_tests_a_long_unary_count_without_a_long_table(monkeypatch):
    # two offsets answer, however long the count on a: the least sums of 4
    # and 6 modulo 4, 0 and 6, found by the search on a alone
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 2)
    gens = frozenset({(4, 0), (6, 0), (0, 1)})
    assert aperiodic._in_monoid((10**6, 3), gens)
    assert not aperiodic._in_monoid((10**6 + 1, 3), gens)
    assert not aperiodic._in_monoid((10**6, 3), frozenset({(4, 0), (6, 0)}))


def test_in_monoid_uses_a_mixed_generator_fewer_times_than_its_order(monkeypatch):
    # modulo aa, bb and cc the least offsets are 0, ab, bc and ab + bc: four
    # offsets answer for any counts
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 8)
    gens = frozenset({(1, 1, 0), (0, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)})
    assert not aperiodic._in_monoid((500, 1001, 500), gens)
    assert aperiodic._in_monoid((500, 1000, 500), gens)
    assert aperiodic._in_monoid((501, 1001, 500), gens)
    assert aperiodic._in_monoid((500, 1001, 501), gens)
    assert not aperiodic._in_monoid((501, 1000, 500), gens)


def test_in_monoid_walks_mixed_periods_of_a_large_order_lazily(monkeypatch):
    # modulo a^97 and b^89 there are 8633 residue classes: the sums of ab and
    # abb below a^2000 b^2001 number about 10^6, while the search keeps the
    # least offsets of each class and stops once d's class holds one, after
    # about 8200
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 10_000)
    gens = frozenset({(97, 0), (0, 89), (1, 1), (1, 2)})
    assert aperiodic._in_monoid((2000, 2001), gens)
    assert aperiodic._in_monoid((2001, 2000), gens)
    # a d in the class of 0 answers before any offset joins
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 1)
    assert aperiodic._in_monoid((97 * 89, 2 * 89), gens)


def test_in_monoid_counts_a_unary_letter_modulo_its_period_past_the_walk(monkeypatch):
    # b has no unary period, so each count on b up to 300 is a class, and a
    # only matters modulo 2: the search keeps about 300 offsets, k·ab, where
    # the sums of ab and aaab below b^300 number about 45,000
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 1000)
    gens = frozenset({(2, 0), (1, 1), (3, 1)})
    assert not aperiodic._in_monoid((10**6 + 1, 300), gens)
    assert aperiodic._in_monoid((10**6, 300), gens)
    assert aperiodic._in_monoid((10**6 + 1, 301), gens)


def test_in_monoid_adds_up_the_classes_of_letters_no_mixed_generator_uses():
    # 50 classes per letter, not 50^3: with no non-unary generator the search
    # stays at 0, and each count is tested against its letter's least sums
    gens = frozenset(
        tuple(p if j == i else 0 for j in range(3)) for i in range(3) for p in (50, 51)
    )
    assert aperiodic._in_monoid((2499, 2499, 2499), gens)
    assert not aperiodic._in_monoid((2499, 2499, 2449), gens)  # the Frobenius number
    # bc walks the 2000 counts of b and c, and a stays in the class of 0
    gens = frozenset({(50, 0, 0), (51, 0, 0), (0, 1, 1)})
    assert aperiodic._in_monoid((2499, 2000, 2000), gens)
    assert not aperiodic._in_monoid((2449, 2000, 2000), gens)
    # ab reaches lcm(300, 400) = 1200 of the 120,000 classes mod (300, 400);
    # 301 and 401 only lower the least sums of their own letter
    gens = frozenset({(300, 0), (301, 0), (0, 400), (0, 401), (1, 1)})
    assert aperiodic._in_monoid((24402, 38651), gens)
    assert aperiodic._in_monoid((32439, 26879), gens)
    assert not aperiodic._in_monoid((2999, 5), gens)


def test_in_monoid_answers_with_the_offset_that_would_cross_the_guard(monkeypatch):
    # 0 leaves (3, 1), odd on both letters; ab, the first offset to join,
    # answers before it counts against the guard
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 1)
    assert aperiodic._in_monoid((3, 1), frozenset({(2, 0), (0, 2), (1, 1)}))


def test_membership_tries_the_recognizable_linear_sets_first(monkeypatch):
    # sh*(a^{2+N} b^3 | a^{2+N} b^{2+2N} | a^{1+3N} b) is regular, but its fold
    # keeps linear sets with the period ab and no unary period on b; a word in
    # a recognizable set answers without searching those
    u = DplUnion.of(AB, [
        DiagonalPeriodic(AB, (Progression(2, 1), 3)),
        DiagonalPeriodic(AB, (Progression(2, 1), Progression(2, 2))),
        DiagonalPeriodic(AB, (Progression(1, 3), 1)),
    ])
    closure = Closure(u)
    kinds = [aperiodic._recognizable(s) for s in closure.linear_sets]
    assert kinds == sorted(kinds, reverse=True) and not all(kinds)
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 50)
    assert union_closure_member((34, 58), closure)
