import pytest

from comshuffle.aperiodic import (
    IntervalConstraint,
    aperiodic_union_from_dict,
    aperiodic_union_to_dict,
    interval_intersect,
    intervals_to_terms,
    term_iterated_shuffle_normal_form,
    term_iterated_shuffle_regular,
    union_closure_member,
    union_iterated_shuffle,
    union_member,
    union_project,
    union_shuffle,
)
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    dpl_member,
    dpl_union_member,
    dpl_union_to_json,
)
from comshuffle.errors import CriterionError, SizeGuardError, UndecidedError
from comshuffle.oracle import (
    VectorSet,
    all_vectors,
    closure_under_addition,
    predicate_enumerate,
    sets_equal,
)
from comshuffle.words import Alphabet, ParikhVector, parikh

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def term(alphabet, word, tail=""):
    return DiagonalPeriodic.perm_shuffle(parikh(word, alphabet), tail)


def closure_window(u: DplUnion, bound: int) -> VectorSet:
    base = predicate_enumerate(lambda v: union_member(v, u), u.alphabet, bound)
    return closure_under_addition(base, bound)


def test_interval_intersect_overlapping():
    c = interval_intersect(
        IntervalConstraint("a", 1, 5), IntervalConstraint("a", 3, None)
    )
    assert c == IntervalConstraint("a", 3, 5)


def test_interval_intersect_empty():
    assert interval_intersect(
        IntervalConstraint("a", 0, 2), IntervalConstraint("a", 4, None)
    ) is None


def test_interval_intersect_requires_same_letter():
    with pytest.raises(ValueError):
        interval_intersect(IntervalConstraint("a", 0, 2), IntervalConstraint("b", 0, 2))


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
    assert term_iterated_shuffle_regular(term(AB, "aa"))
    assert term_iterated_shuffle_regular(term(AB, "ab", "ab"))
    assert term_iterated_shuffle_regular(term(AB, "", "a"))
    assert not term_iterated_shuffle_regular(term(AB, "ab"))
    assert not term_iterated_shuffle_regular(term(AB, "ab", "a"))


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
    u = DplUnion.of(AB, [term(AB, "ab"), term(AB, "a", "a")])
    expected = closure_window(u, 10)
    got = predicate_enumerate(lambda v: union_closure_member(v, u), AB, 10)
    ok, cex = sets_equal(got, expected)
    assert ok, f"disagree at {cex.as_dict() if cex else None}"


def test_union_iterated_shuffle_simple_union():
    u = DplUnion.of(AB, [term(AB, "a"), term(AB, "bb")])
    closure = union_iterated_shuffle(u)
    got = predicate_enumerate(lambda v: dpl_union_member(v, closure), AB, 10)
    expected = closure_window(u, 10)
    ok, cex = sets_equal(got, expected)
    assert ok, f"disagree at {cex.as_dict() if cex else None}"


def test_union_iterated_shuffle_undecided_for_equal_counts():
    u = DplUnion.of(AB, [term(AB, "ab")])
    with pytest.raises(UndecidedError):
        union_iterated_shuffle(u)


def test_union_iterated_shuffle_term_guard():
    terms = [term(AB, "a" * (i + 1)) for i in range(9)]
    with pytest.raises(SizeGuardError):
        union_iterated_shuffle(DplUnion.of(AB, terms))


def test_serialization_round_trip():
    u = DplUnion.of(ABC, [term(ABC, "ab", "c"), term(ABC, "c", "ab")])
    back = aperiodic_union_from_dict(aperiodic_union_to_dict(u))
    assert dpl_union_to_json(back) == dpl_union_to_json(u)
    for v in all_vectors(ABC, 5):
        assert union_member(v, back) == union_member(v, u)
