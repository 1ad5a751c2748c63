from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from comshuffle.errors import SizeGuardError
from comshuffle.words import (
    Alphabet,
    ParikhVector,
    parikh,
    perm_set,
    project_word,
    word_of,
)

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")

words = st.text(alphabet="ab", max_size=8)


def test_alphabet_preserves_given_order():
    assert Alphabet.of("ba").letters == ("b", "a")
    assert Alphabet.of("ab").letters == ("a", "b")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet.of("bab")


def test_alphabet_membership_and_index():
    assert "a" in AB
    assert "c" not in AB
    assert AB.index("b") == 1


def test_alphabet_restrict():
    assert ABC.restrict("ca").letters == ("a", "c")


def test_parikh_counts():
    v = parikh("abba", AB)
    assert v["a"] == 2
    assert v["b"] == 2


def test_parikh_rejects_foreign_letter():
    with pytest.raises(ValueError):
        parikh("abc", AB)


@given(words, words)
def test_parikh_is_additive(u, v):
    assert parikh(u, AB) + parikh(v, AB) == parikh(u + v, AB)


@given(words)
def test_word_of_round_trips_counts(w):
    v = parikh(w, AB)
    assert parikh(word_of(v), AB) == v


def test_restrict():
    v = parikh("abca", ABC)
    r = v.restrict("ab")
    assert r.as_dict() == {"a": 2, "b": 1}


def test_support():
    assert parikh("aca", ABC).support() == {"a", "c"}


def test_zero_vector():
    z = ParikhVector.zero(AB)
    assert z.total() == 0
    assert z + parikh("ab", AB) == parikh("ab", AB)


def test_perm_set_small():
    assert set(perm_set("ab")) == {"ab", "ba"}
    assert set(perm_set("aab")) == {"aab", "aba", "baa"}


@given(st.text(alphabet="abc", max_size=5))
def test_perm_set_matches_itertools(w):
    expected = {"".join(p) for p in permutations(w)}
    assert set(perm_set(w)) == expected


def test_perm_set_guard():
    with pytest.raises(SizeGuardError):
        perm_set("a" * 13)


def test_project_word():
    assert project_word("abcabc", "ac") == "acac"
    assert project_word("bbb", "a") == ""
