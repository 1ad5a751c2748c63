import random
from itertools import product

import pytest

from comshuffle.dpl import DiagonalPeriodic, DplUnion, dpl_union_member
from comshuffle.errors import SizeGuardError
from comshuffle.oracle import (
    VectorSet,
    all_vectors,
    closure_under_addition,
    dpl_enumerate,
    sets_equal,
    vector_sums,
    word_language,
)
from comshuffle.progressions import Progression
from comshuffle.words import Alphabet, ParikhVector, parikh

AB = Alphabet.of("ab")


def vs(words, bound):
    return VectorSet(AB, frozenset(parikh(w, AB) for w in words), bound)


def test_all_vectors_count():
    # vectors over two letters with coordinate sum <= n: (n+1)(n+2)/2
    assert len(list(all_vectors(AB, 4))) == 15


def test_vector_set_rejects_out_of_bound():
    with pytest.raises(ValueError):
        vs(["aaa"], 2)


def test_closure_contains_zero_and_generators():
    c = closure_under_addition(vs(["ab"], 8), 8)
    assert ParikhVector.zero(AB) in c.vectors
    assert parikh("ab", AB) in c.vectors
    assert parikh("aabb", AB) in c.vectors
    assert parikh("aab", AB) not in c.vectors


def test_closure_mixes_generators():
    c = closure_under_addition(vs(["a", "bb"], 6), 6)
    assert parikh("abb", AB) in c.vectors
    assert parikh("ab", AB) not in c.vectors


def test_vector_sums():
    s = vector_sums(vs(["a", "aa"], 4), vs(["b"], 4), 4)
    assert s.vectors == frozenset({parikh("ab", AB), parikh("aab", AB)})


def test_dpl_enumerate_matches_membership():
    u = DplUnion.of(AB, [DiagonalPeriodic.make(AB, {"a": Progression(1, 2)})])
    got = dpl_enumerate(u, 6)
    assert parikh("aaa", AB) in got.vectors
    assert parikh("aa", AB) not in got.vectors


def test_sets_equal_minimal_counterexample():
    ok, cex = sets_equal(vs(["a", "bb"], 4), vs(["a"], 4))
    assert not ok
    assert cex == parikh("bb", AB)


def test_sets_equal_requires_same_window():
    with pytest.raises(ValueError):
        sets_equal(vs([], 4), vs([], 5))


def test_word_language_is_commutative():
    member = lambda v: v["a"] == v["b"]
    words = word_language(member, AB, 4)
    assert "" in words
    assert "ab" in words and "ba" in words
    assert "aab" not in words


def test_word_language_guard():
    with pytest.raises(SizeGuardError):
        word_language(lambda v: True, AB, 11)


def test_closure_bound_guard():
    with pytest.raises(SizeGuardError):
        closure_under_addition(vs([], 4), 61)


# --- the count-tuple oracle against a naive ParikhVector reference --------
#
# The references below are the straightforward algorithms: every sum is a
# validated `ParikhVector` addition and every vector is built before it is
# tested.  The oracle must give the same windows on seeded random inputs.

ALPHABETS = [Alphabet.of(s) for s in ("a", "ab", "abc")]


def naive_vectors(alphabet, bound):
    return [
        ParikhVector(alphabet, c)
        for c in product(range(bound + 1), repeat=len(alphabet))
        if sum(c) <= bound
    ]


def naive_closure(base, bound):
    zero = ParikhVector.zero(base.alphabet)
    gens = [v for v in base.vectors if v.total() <= bound and v != zero]
    reached, frontier = {zero}, [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = v + g
            if w.total() <= bound and w not in reached:
                reached.add(w)
                frontier.append(w)
    return reached


def naive_sums(x, y, bound):
    return {a + b for a in x.vectors for b in y.vectors if (a + b).total() <= bound}


def naive_words(member, alphabet, bound):
    return tuple(
        "".join(t)
        for n in range(bound + 1)
        for t in product(alphabet.letters, repeat=n)
        if member(parikh("".join(t), alphabet))
    )


def random_set(rng, alphabet, bound):
    """A random window over `alphabet`, zero vector and all, up to `bound`."""
    pool = naive_vectors(alphabet, bound)
    return VectorSet(alphabet, frozenset(rng.sample(pool, rng.randint(0, min(4, len(pool))))), bound)


def random_union(rng, alphabet):
    def count_set():
        if rng.random() < 0.4:
            return rng.randint(0, 3)
        return Progression(rng.randint(0, 3), rng.randint(1, 4))

    terms = [
        DiagonalPeriodic(alphabet, tuple(count_set() for _ in alphabet))
        for _ in range(rng.randint(0, 3))
    ]
    return DplUnion.of(alphabet, terms)


def random_cases(seed, n=40):
    rng = random.Random(seed)
    for _ in range(n):
        alphabet = rng.choice(ALPHABETS)
        yield rng, alphabet, rng.randint(0, 9)


@pytest.mark.parametrize("seed", range(3))
def test_closure_equals_the_naive_closure(seed):
    for rng, alphabet, bound in random_cases(seed):
        # generators may lie beyond the closure's bound
        base = random_set(rng, alphabet, rng.randint(0, 9))
        got = closure_under_addition(base, bound)
        assert got == VectorSet(alphabet, frozenset(naive_closure(base, bound)), bound)


@pytest.mark.parametrize("seed", range(3))
def test_vector_sums_equal_the_naive_sums(seed):
    for rng, alphabet, bound in random_cases(seed):
        x = random_set(rng, alphabet, rng.randint(0, 9))
        y = random_set(rng, alphabet, rng.randint(0, 9))
        got = vector_sums(x, y, bound)
        assert got == VectorSet(alphabet, frozenset(naive_sums(x, y, bound)), bound)


@pytest.mark.parametrize("seed", range(3))
def test_dpl_enumerate_equals_the_naive_enumeration(seed):
    for rng, alphabet, bound in random_cases(seed):
        u = random_union(rng, alphabet)
        expected = {v for v in naive_vectors(alphabet, bound) if dpl_union_member(v, u)}
        assert dpl_enumerate(u, bound) == VectorSet(alphabet, frozenset(expected), bound)


@pytest.mark.parametrize("seed", range(3))
def test_word_language_equals_the_naive_word_list(seed):
    for rng, alphabet, bound in random_cases(seed, n=15):
        bound = min(bound, {1: 9, 2: 7, 3: 5}[len(alphabet)])
        u = random_union(rng, alphabet)
        asked = []
        member = lambda v: asked.append(v) or dpl_union_member(v, u)
        got = word_language(member, alphabet, bound)
        # ordered by length, then lexicographically in alphabet order
        assert got == naive_words(lambda v: dpl_union_member(v, u), alphabet, bound)
        # one question per count vector, not per word
        assert sorted(asked, key=lambda v: v.counts) == sorted(
            naive_vectors(alphabet, bound), key=lambda v: v.counts
        )


def test_word_language_follows_the_alphabet_order():
    ba = Alphabet.of("ba")
    assert word_language(lambda v: v.total() == 2, ba, 2) == ("bb", "ba", "ab", "aa")


def test_vector_sums_reject_an_alphabet_mismatch():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        vector_sums(vs(["a"], 2), VectorSet(Alphabet.of("abc"), frozenset(), 2), 2)
