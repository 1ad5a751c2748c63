import random

import pytest

from comshuffle.errors import CriterionError
from comshuffle.oracle import (
    closure_under_addition,
    dpl_enumerate,
    predicate_enumerate,
    sets_equal,
    vector_sums,
    VectorSet,
)
from comshuffle.regularity import (
    FiniteLang,
    build_representation,
    decide_finite,
    decide_prefixed,
    nerode_evidence,
    shift_representation,
)
from comshuffle.words import Alphabet, parikh

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")
BOUND = 10


def closure_of(lang: FiniteLang, bound: int) -> VectorSet:
    base = VectorSet(
        lang.alphabet, frozenset(parikh(w, lang.alphabet) for w in lang.words), bound
    )
    return closure_under_addition(base, bound)


def test_finite_lang_deduplicates():
    lang = FiniteLang.of(AB, ["b", "a", "b"])
    assert sorted(lang.words) == ["a", "b"]


def test_occurring_letters():
    assert FiniteLang.of(AB, ["aa"]).occurring_letters() == ["a"]


def test_regular_when_every_letter_has_a_unary_word():
    v = decide_finite(FiniteLang.of(AB, ["ab", "a", "b"]))
    assert v.regular
    assert v.witness_letter is None
    assert v.representation is not None


def test_non_regular_names_a_letter_without_unary_word():
    v = decide_finite(FiniteLang.of(AB, ["ab"]))
    assert not v.regular
    assert v.witness_letter in ("a", "b")
    assert v.representation is None


def test_unary_language_is_regular():
    assert decide_finite(FiniteLang.of(AB, ["aa"])).regular


def test_empty_language_is_regular():
    assert decide_finite(FiniteLang.of(AB, [])).regular


def test_representation_matches_closure_pinned():
    for words in (["a", "b"], ["ab", "a", "b"], ["aa", "b"], ["a", "bb", "ab"]):
        lang = FiniteLang.of(AB, words)
        verdict = decide_finite(lang)
        assert verdict.regular
        ok, cex = sets_equal(
            dpl_enumerate(verdict.representation, BOUND), closure_of(lang, BOUND)
        )
        assert ok, f"{words} disagree at {cex.as_dict() if cex else None}"


def test_representation_matches_closure_random():
    rng = random.Random(23)
    pool = ["a", "b", "ab", "aab", "abb", "aa", "bb", "ba"]
    for _ in range(40):
        words = rng.sample(pool, rng.randint(1, 4))
        lang = FiniteLang.of(AB, words)
        verdict = decide_finite(lang)
        if not verdict.regular:
            continue
        ok, cex = sets_equal(
            dpl_enumerate(verdict.representation, BOUND), closure_of(lang, BOUND)
        )
        assert ok, f"{words} disagree at {cex.as_dict() if cex else None}"


def test_build_representation_requires_unary_words():
    with pytest.raises(CriterionError):
        build_representation(FiniteLang.of(AB, ["ab"]))


def test_shift_representation():
    lang = FiniteLang.of(AB, ["a", "b"])
    rep = build_representation(lang)
    shifted = shift_representation(rep, parikh("ab", AB))
    base = dpl_enumerate(rep, BOUND)
    moved = dpl_enumerate(shifted, BOUND)
    expected = predicate_enumerate(
        lambda v: v["a"] >= 1 and v["b"] >= 1, AB, BOUND
    )
    assert moved.vectors == expected.vectors
    assert parikh("ab", AB) in moved.vectors
    assert parikh("a", AB) not in moved.vectors
    assert len(base.vectors) >= len(moved.vectors)


def test_decide_prefixed_regular_case():
    v = decide_prefixed("ab", FiniteLang.of(AB, ["a", "b"]))
    assert v.regular
    vecs = dpl_enumerate(v.representation, 8).vectors
    assert parikh("ab", AB) in vecs
    assert parikh("a", AB) not in vecs


def test_decide_prefixed_letter_outside_the_language():
    # perm(ab) ⧢ a*: b is not in the language, so its count stays exactly 1
    lang = FiniteLang.of(AB, ["a"])
    v = decide_prefixed("ab", lang)
    assert v.regular
    prefix = VectorSet(AB, frozenset([parikh("ab", AB)]), BOUND)
    expected = vector_sums(prefix, closure_of(lang, BOUND), BOUND)
    ok, cex = sets_equal(dpl_enumerate(v.representation, BOUND), expected)
    assert ok, f"disagree at {cex.as_dict() if cex else None}"


def test_decide_prefixed_non_regular_case():
    v = decide_prefixed("a", FiniteLang.of(AB, ["ab"]))
    assert not v.regular


def test_nerode_evidence_grows_for_equal_counts():
    member = lambda w: w.count("a") == w.count("b")
    ev = nerode_evidence(member, AB, 6)
    counts = dict(ev.class_counts_per_bound)
    assert counts[3] < counts[4] < counts[5] < counts[6]
    for left, right, sep in ev.distinguished_pairs:
        assert member(left + sep) != member(right + sep)


def test_nerode_evidence_stabilizes_for_regular_language():
    member = lambda w: w.count("a") % 2 == 0
    ev = nerode_evidence(member, AB, 6)
    counts = dict(ev.class_counts_per_bound)
    assert counts[4] == counts[5] == counts[6] == 2
