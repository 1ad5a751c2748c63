import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    Fcount,
    Fmod,
    GammaPlus,
    GammaStar,
    GenIntersect,
    GenUnion,
    dpl_intersect,
    dpl_inverse_project,
    dpl_iterated_shuffle,
    dpl_member,
    dpl_project,
    dpl_shift,
    dpl_shuffle,
    dpl_union,
    dpl_union_from_dict,
    dpl_union_member,
    dpl_union_to_dict,
    from_generators,
    lemma_closed_form,
)
from comshuffle.errors import CriterionError, SizeGuardError
from comshuffle.oracle import (
    all_vectors,
    closure_under_addition,
    dpl_enumerate,
    predicate_enumerate,
    sets_equal,
    vector_sums,
)
from comshuffle.progressions import Progression
from comshuffle.words import Alphabet, ParikhVector, parikh

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")
BOUND = 10


def random_union(rng: random.Random, alphabet: Alphabet, max_terms: int = 3) -> DplUnion:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        progs = {}
        for a in alphabet:
            if rng.random() < 0.7:
                progs[a] = Progression(rng.randint(0, 3), rng.randint(1, 4))
        terms.append(DiagonalPeriodic.make(alphabet, progs))
    return DplUnion.of(alphabet, terms)


def random_exact_union(rng: random.Random, alphabet: Alphabet, max_terms: int = 3) -> DplUnion:
    """Terms whose letters carry a progression or an exact count (0 to 2)."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        progs, exact = {}, {}
        for a in alphabet:
            if rng.random() < 0.5:
                progs[a] = Progression(rng.randint(0, 3), rng.randint(1, 3))
            else:
                exact[a] = rng.randint(0, 2)
        terms.append(DiagonalPeriodic.make(alphabet, progs, exact))
    return DplUnion.of(alphabet, terms)


def assert_same(u: DplUnion, member, bound: int = BOUND):
    got = dpl_enumerate(u, bound)
    expected = predicate_enumerate(member, u.alphabet, bound)
    ok, cex = sets_equal(got, expected)
    assert ok, f"first disagreement at {cex.as_dict() if cex else None}"


def test_single_term_membership():
    d = DiagonalPeriodic.make(AB, {"a": Progression(1, 2), "b": Progression(0, 1)})
    assert dpl_member(parikh("a", AB), d)
    assert dpl_member(parikh("aaab", AB), d)
    assert not dpl_member(parikh("aa", AB), d)
    assert not dpl_member(parikh("b", AB), d)


def test_support_excludes_letters_without_progression_offset_zero():
    # a letter with no progression is pinned to count zero
    d = DiagonalPeriodic.make(AB, {"a": Progression(0, 1)})
    assert dpl_member(parikh("aaa", AB), d)
    assert not dpl_member(parikh("ab", AB), d)


def test_sigma_star_and_epsilon():
    assert dpl_union_member(parikh("abba", AB), DplUnion.sigma_star(AB))
    eps = DplUnion.epsilon(AB)
    assert dpl_union_member(parikh("", AB), eps)
    assert not dpl_union_member(parikh("a", AB), eps)


def test_union_and_intersection_agree_with_sets():
    rng = random.Random(7)
    for _ in range(25):
        u1 = random_union(rng, AB)
        u2 = random_union(rng, AB)
        assert_same(
            dpl_union(u1, u2),
            lambda v: dpl_union_member(v, u1) or dpl_union_member(v, u2),
        )
        assert_same(
            dpl_intersect(u1, u2),
            lambda v: dpl_union_member(v, u1) and dpl_union_member(v, u2),
        )


def test_shuffle_agrees_with_vector_sums():
    rng = random.Random(11)
    for _ in range(15):
        u1 = random_union(rng, AB)
        u2 = random_union(rng, AB)
        got = dpl_enumerate(dpl_shuffle(u1, u2), BOUND)
        expected = vector_sums(dpl_enumerate(u1, BOUND), dpl_enumerate(u2, BOUND), BOUND)
        ok, cex = sets_equal(got, expected)
        assert ok, f"first disagreement at {cex.as_dict() if cex else None}"


def test_iterated_shuffle_agrees_with_additive_closure():
    rng = random.Random(13)
    for _ in range(15):
        u = random_union(rng, AB)
        got = dpl_enumerate(dpl_iterated_shuffle(u), BOUND)
        expected = closure_under_addition(dpl_enumerate(u, BOUND), BOUND)
        ok, cex = sets_equal(got, expected)
        assert ok, f"first disagreement at {cex.as_dict() if cex else None}"


def test_operations_are_exact_on_exact_counts():
    rng = random.Random(19)
    for _ in range(25):
        u1 = random_exact_union(rng, AB)
        u2 = random_exact_union(rng, AB)
        e1, e2 = dpl_enumerate(u1, BOUND), dpl_enumerate(u2, BOUND)
        assert_same(
            dpl_intersect(u1, u2),
            lambda v: dpl_union_member(v, u1) and dpl_union_member(v, u2),
        )
        ok, cex = sets_equal(dpl_enumerate(dpl_shuffle(u1, u2), BOUND), vector_sums(e1, e2, BOUND))
        assert ok, f"shuffle differs at {cex.as_dict() if cex else None}"
        shift = parikh("abb", AB)

        def shifted_member(v):
            rest = tuple(x - y for x, y in zip(v.counts, shift.counts))
            return min(rest) >= 0 and dpl_union_member(ParikhVector(AB, rest), u1)

        assert_same(dpl_shift(u1, shift), shifted_member)
        # a term's least count of b is at most 3, so counts below 4 decide
        assert_same(
            dpl_project(u1, "a"),
            lambda v: any(
                dpl_union_member(parikh("a" * v["a"] + "b" * n, AB), u1) for n in range(4)
            ),
        )
        up = dpl_project(u1, "a")
        assert_same(dpl_inverse_project(up, AB), lambda v: dpl_union_member(v.restrict("a"), up))


def test_exact_count_term_membership():
    d = DiagonalPeriodic.make(AB, {"a": Progression(1, 2)}, {"b": 2})
    assert d.sets == (Progression(1, 2), 2)
    assert dpl_member(parikh("abb", AB), d)
    assert dpl_member(parikh("aaabb", AB), d)
    assert not dpl_member(parikh("ab", AB), d)
    assert not dpl_member(parikh("abbb", AB), d)


def test_zero_exact_count_is_the_default():
    d = DiagonalPeriodic.make(AB, {"a": Progression(1, 2)}, {"b": 0})
    plain = DiagonalPeriodic.make(AB, {"a": Progression(1, 2)})
    assert d == plain
    assert hash(d) == hash(plain)
    assert d.sets == (Progression(1, 2), 0)
    assert d.exact == ()


def test_make_rejects_letters_outside_the_alphabet():
    with pytest.raises(ValueError):
        DiagonalPeriodic.make(AB, {"z": Progression(0, 1)})
    with pytest.raises(ValueError):
        DiagonalPeriodic.make(AB, {}, {"z": 1})


def test_make_rejects_a_progression_with_an_exact_count():
    with pytest.raises(ValueError):
        DiagonalPeriodic.make(AB, {"a": Progression(0, 1)}, {"a": 2})


@pytest.mark.parametrize(
    "sets",
    [
        (Progression(0, 1),),
        (Progression(0, 1), 0, 0),
        (Progression(0, 1), -1),
        (Progression(0, 1), 1.0),
        (Progression(0, 1), True),
        (Progression(0, 1), None),
    ],
)
def test_term_rejects_malformed_count_sets(sets):
    with pytest.raises(ValueError):
        DiagonalPeriodic(AB, sets)


def test_json_loader_rejects_letters_outside_the_alphabet():
    data = {"alphabet": ["a"], "terms": [{"support": ["z"], "progs": {"z": {"k": 1, "p": 1}}}]}
    with pytest.raises(ValueError):
        dpl_union_from_dict(data)
    data = {"alphabet": ["a"], "terms": [{"support": [], "progs": {}, "exact": {"z": 1}}]}
    with pytest.raises(ValueError):
        dpl_union_from_dict(data)


def test_iterated_shuffle_refuses_exact_counts():
    u = DplUnion.of(AB, [DiagonalPeriodic.make(AB, {"a": Progression(0, 1)}, {"b": 1})])
    with pytest.raises(CriterionError) as err:
        dpl_iterated_shuffle(u)
    assert err.value.letter == "b"


def test_iterated_shuffle_contains_epsilon():
    u = DplUnion.of(AB, [DiagonalPeriodic.make(AB, {"a": Progression(2, 1)})])
    assert dpl_union_member(parikh("", AB), dpl_iterated_shuffle(u))


def test_project_drops_letters():
    u = from_generators(GenIntersect((Fcount("a", 2), Fmod("b", 1, 2))), AB)
    p = dpl_project(u, "a")
    for v in all_vectors(Alphabet.of("a"), 6):
        assert dpl_union_member(v, p) == (v["a"] >= 2)


def test_inverse_project_frees_new_letters():
    u = from_generators(Fcount("a", 1), Alphabet.of("a"))
    up = dpl_inverse_project(u, AB)
    assert dpl_union_member(parikh("abb", AB), up)
    assert not dpl_union_member(parikh("bb", AB), up)


def test_from_generators_fcount():
    u = from_generators(Fcount("a", 2), AB)
    assert_same(u, lambda v: v["a"] >= 2)


def test_from_generators_fmod():
    u = from_generators(Fmod("a", 1, 3), AB)
    assert_same(u, lambda v: v["a"] % 3 == 1)


def test_from_generators_gamma_star_and_plus():
    star = from_generators(GammaStar(frozenset("a")), AB)
    assert_same(star, lambda v: v["b"] == 0)
    plus = from_generators(GammaPlus(frozenset("a")), AB)
    assert_same(plus, lambda v: v["b"] == 0 and v["a"] >= 1)


def test_from_generators_boolean_combinations():
    expr = GenUnion(
        (
            GenIntersect((Fcount("a", 1), Fmod("b", 0, 2))),
            GammaStar(frozenset("b")),
        )
    )
    u = from_generators(expr, AB)
    assert_same(u, lambda v: (v["a"] >= 1 and v["b"] % 2 == 0) or v["a"] == 0)


def test_from_generators_clause_guard():
    expr = GenUnion(tuple(Fmod("a", r, 5) for r in range(5)))
    with pytest.raises(SizeGuardError):
        from_generators(expr, AB, clause_guard=3)


def test_lemma_closed_form_against_predicate():
    d = lemma_closed_form(AB, {"a": 4}, {"a": 1}, {"a": 3})
    u = DplUnion.of(AB, [d])
    assert_same(u, lambda v: v["a"] >= 4 and v["a"] % 3 == 1, bound=14)


def test_lemma_closed_form_threshold_already_aligned():
    # threshold 4, residue 1 mod 3: the first admissible count is exactly 4
    d = lemma_closed_form(AB, {"a": 4}, {"a": 1}, {"a": 3})
    assert d.prog("a") == Progression(4, 3)
    # threshold 5 lands one step later, not a full extra period
    d2 = lemma_closed_form(AB, {"a": 5}, {"a": 1}, {"a": 3})
    assert d2.prog("a") == Progression(7, 3)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=5),
)
def test_lemma_matches_clause_folding(t, n, r):
    if r >= n:
        r %= n
    folded = from_generators(GenIntersect((Fcount("a", t), Fmod("a", r, n))), AB)
    direct = DplUnion.of(AB, [lemma_closed_form(AB, {"a": t}, {"a": r}, {"a": n})])
    ok, cex = sets_equal(dpl_enumerate(folded, 16), dpl_enumerate(direct, 16))
    assert ok, f"t={t} r={r} n={n} differ at {cex.as_dict() if cex else None}"


def to_json(u: DplUnion) -> str:
    return json.dumps(dpl_union_to_dict(u), sort_keys=True)


def from_json(text: str) -> DplUnion:
    return dpl_union_from_dict(json.loads(text))


def test_serialization_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        u = random_union(rng, ABC)
        text = to_json(u)
        back = from_json(text)
        assert to_json(back) == text
        ok, _ = sets_equal(dpl_enumerate(u, 6), dpl_enumerate(back, 6))
        assert ok


def test_serialization_round_trip_with_exact_counts():
    rng = random.Random(29)
    for _ in range(10):
        u = random_exact_union(rng, ABC)
        text = to_json(u)
        data = json.loads(text)
        # the key appears only on terms with a nonzero exact count
        assert all(("exact" in t) == bool(t.get("exact")) for t in data["terms"])
        back = from_json(text)
        assert to_json(back) == text
        ok, _ = sets_equal(dpl_enumerate(u, 6), dpl_enumerate(back, 6))
        assert ok


def test_serialization_is_canonical():
    u = from_generators(GenUnion((Fmod("b", 1, 2), Fcount("a", 1))), AB)
    data = dpl_union_to_dict(u)
    assert json.dumps(data, sort_keys=True) == json.dumps(
        dpl_union_to_dict(from_json(to_json(u))), sort_keys=True
    )


@pytest.mark.parametrize(
    "gen",
    [
        Fcount("z", 1),
        GammaStar(frozenset("z")),
        GammaPlus(frozenset("z")),
        GammaStar(frozenset("az")),
        GammaPlus(frozenset("az")),
    ],
)
def test_a_generator_refuses_a_letter_outside_the_alphabet(gen):
    with pytest.raises(ValueError, match=r"letters \['z'\] outside the alphabet"):
        from_generators(gen, Alphabet.of("ab"))
