import random
from itertools import product

import pytest

from comshuffle.automata import (
    Dfa,
    complete,
    dfa_from_dict,
    dfa_to_dict,
    dfa_to_dot,
    dfa_to_dpl,
    dpl_to_dfa,
    is_aperiodic,
    is_commutative,
    is_permutation,
    minimize,
    project_automaton,
    report,
)
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    Fcount,
    Fmod,
    GammaStar,
    GenIntersect,
    GenUnion,
    dpl_project,
    dpl_union_member,
    from_generators,
)
from comshuffle.errors import CriterionError, NotInPositiveClassError, SizeGuardError
from comshuffle.oracle import dpl_enumerate, sets_equal, word_language
from comshuffle.progressions import Progression
from comshuffle.words import Alphabet, parikh

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def words_upto(alphabet, n):
    for k in range(n + 1):
        for tup in product(alphabet.letters, repeat=k):
            yield "".join(tup)


def random_union(rng, alphabet, max_terms=2):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        progs = {}
        for a in alphabet:
            if rng.random() < 0.7:
                progs[a] = Progression(rng.randint(0, 3), rng.randint(1, 4))
        terms.append(DiagonalPeriodic.make(alphabet, progs))
    return DplUnion.of(alphabet, terms)


def even_a_dfa():
    return Dfa.make(AB, 2, 0, [0], {(0, "a"): 1, (1, "a"): 0, (0, "b"): 0, (1, "b"): 1})


def test_dfa_runs_and_accepts():
    d = even_a_dfa()
    assert d.accepts("")
    assert d.accepts("aab")
    assert not d.accepts("ab")


def test_missing_transition_rejects():
    d = Dfa.make(AB, 1, 0, [0], {(0, "a"): 0})
    assert d.accepts("aa")
    assert not d.accepts("ab")


def test_complete_adds_sink():
    d = Dfa.make(AB, 1, 0, [0], {(0, "a"): 0})
    c = complete(d)
    assert c.is_complete()
    assert c.n_states == 2
    for w in words_upto(AB, 5):
        assert c.accepts(w) == d.accepts(w)


def test_dfa_validates_transitions():
    with pytest.raises(ValueError):
        Dfa.make(AB, 1, 0, [0], {(0, "a"): 5})
    with pytest.raises(ValueError):
        Dfa.make(AB, 1, 0, [0], {(0, "c"): 0})


def test_is_commutative():
    assert is_commutative(even_a_dfa())
    swap = Dfa.make(
        AB,
        3,
        0,
        [0],
        {
            (0, "a"): 1, (1, "a"): 0, (2, "a"): 2,
            (0, "b"): 1, (1, "b"): 2, (2, "b"): 0,
        },
    )
    assert not is_commutative(swap)


def test_is_aperiodic_requires_commutative():
    swap = Dfa.make(
        AB,
        3,
        0,
        [0],
        {
            (0, "a"): 1, (1, "a"): 0, (2, "a"): 2,
            (0, "b"): 1, (1, "b"): 2, (2, "b"): 0,
        },
    )
    with pytest.raises(CriterionError):
        is_aperiodic(swap)


def test_is_aperiodic():
    threshold = minimize(dpl_to_dfa(from_generators(Fcount("a", 2), AB)))
    assert is_aperiodic(threshold)
    parity = minimize(dpl_to_dfa(from_generators(Fmod("a", 1, 2), AB)))
    assert not is_aperiodic(parity)


def test_is_permutation():
    parity = minimize(dpl_to_dfa(from_generators(Fmod("a", 1, 2), AB)))
    assert is_permutation(parity)
    threshold = minimize(dpl_to_dfa(from_generators(Fcount("a", 2), AB)))
    assert not is_permutation(threshold)


def test_report_keys():
    data = report(minimize(dpl_to_dfa(from_generators(Fmod("a", 0, 3), AB)))).to_dict()
    assert set(data) == {"commutative", "aperiodic", "permutation", "stateCount", "complete"}
    assert data["commutative"] and data["permutation"] and not data["aperiodic"]


def test_dpl_to_dfa_matches_membership():
    u = from_generators(
        GenIntersect((Fcount("a", 1), Fmod("b", 1, 2))), AB
    )
    d = dpl_to_dfa(u)
    for w in words_upto(AB, 8):
        assert d.accepts(w) == dpl_union_member(parikh(w, AB), u)


def test_dpl_to_dfa_matches_membership_with_exact_counts():
    u = DplUnion.of(
        AB,
        [
            DiagonalPeriodic.make(AB, {"a": Progression(1, 2)}, {"b": 2}),
            DiagonalPeriodic.make(AB, {}, {"a": 1, "b": 1}),
        ],
    )
    d = dpl_to_dfa(u)
    for w in words_upto(AB, 8):
        assert d.accepts(w) == dpl_union_member(parikh(w, AB), u), w


def test_dpl_to_dfa_guard():
    u = from_generators(Fmod("a", 0, 50), AB)
    with pytest.raises(SizeGuardError):
        dpl_to_dfa(u, guard=10)


def test_minimize_preserves_language():
    rng = random.Random(31)
    for _ in range(20):
        u = random_union(rng, AB)
        d = dpl_to_dfa(u)
        m = minimize(d)
        assert m.n_states <= complete(d).n_states
        for w in words_upto(AB, 8):
            assert m.accepts(w) == d.accepts(w)


def test_minimize_is_canonical_on_parity():
    # a(aa)* needs only the parity of the a-count
    u = DplUnion.of(AB, [DiagonalPeriodic.make(AB, {"a": Progression(1, 2), "b": Progression(0, 1)})])
    m = minimize(dpl_to_dfa(u))
    assert m.n_states == 2
    for w in words_upto(AB, 9):
        assert m.accepts(w) == (w.count("a") % 2 == 1)


def test_project_automaton_matches_dpl_projection():
    u = from_generators(
        GenUnion((GenIntersect((Fcount("a", 2), Fmod("c", 1, 2))), GammaStar(frozenset("ab")))),
        ABC,
    )
    m = minimize(dpl_to_dfa(u))
    p = project_automaton(m, "ab")
    assert p.n_states <= m.n_states
    projected = dpl_project(u, "ab")
    for w in words_upto(AB, 8):
        assert p.accepts(w) == dpl_union_member(parikh(w, AB), projected)


def test_project_automaton_requires_commutative():
    swap = Dfa.make(
        AB,
        3,
        0,
        [0],
        {
            (0, "a"): 1, (1, "a"): 0, (2, "a"): 2,
            (0, "b"): 1, (1, "b"): 2, (2, "b"): 0,
        },
    )
    with pytest.raises(CriterionError):
        project_automaton(swap, "a")


def test_dfa_to_dpl_round_trip():
    rng = random.Random(37)
    for _ in range(15):
        u = random_union(rng, AB)
        back = dfa_to_dpl(dpl_to_dfa(u))
        ok, cex = sets_equal(dpl_enumerate(u, 9), dpl_enumerate(back, 9))
        assert ok, f"round trip differs at {cex.as_dict() if cex else None}"


def test_dfa_to_dpl_rejects_non_commutative():
    swap = Dfa.make(
        AB,
        3,
        0,
        [0],
        {
            (0, "a"): 1, (1, "a"): 0, (2, "a"): 2,
            (0, "b"): 1, (1, "b"): 2, (2, "b"): 0,
        },
    )
    with pytest.raises((CriterionError, NotInPositiveClassError)):
        dfa_to_dpl(swap)


def test_serialization_round_trip():
    d = minimize(dpl_to_dfa(from_generators(Fmod("a", 1, 3), AB)))
    back = dfa_from_dict(dfa_to_dict(d))
    assert back == d


def test_dot_output_mentions_all_states():
    d = even_a_dfa()
    dot = dfa_to_dot(d)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    for q in range(d.n_states):
        assert f"q{q}" in dot or str(q) in dot


def test_word_language_agrees_with_dfa():
    u = from_generators(Fmod("a", 1, 2), AB)
    d = dpl_to_dfa(u)
    expected = word_language(lambda v: dpl_union_member(v, u), AB, 6)
    got = tuple(w for w in words_upto(AB, 6) if d.accepts(w))
    assert sorted(got) == sorted(expected)
