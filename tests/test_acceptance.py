"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every criterion is checked against an independent brute-force oracle or a
pinned expectation; bounds and tolerances are fixed in the constants below.
"""

import math
import random
import time
from itertools import product

import pytest

from comshuffle.aperiodic import (
    union_closure_member,
    union_iterated_shuffle,
    union_member,
)
from comshuffle.automata import (
    Dfa,
    dpl_to_dfa,
    is_aperiodic,
    is_commutative,
    is_permutation,
    minimize,
    project_automaton,
)
from comshuffle.cli import eval_expr, _member_word
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    Fcount,
    Fmod,
    GammaStar,
    GenIntersect,
    GenUnion,
    dpl_iterated_shuffle,
    dpl_project,
    dpl_shuffle,
    dpl_union_member,
    from_generators,
    lemma_closed_form,
)
from comshuffle.errors import UndecidedError
from comshuffle.exprlang import parse
from comshuffle.oracle import (
    VectorSet,
    all_vectors,
    closure_under_addition,
    dpl_enumerate,
    predicate_enumerate,
    sets_equal,
    word_language,
)
from comshuffle.progressions import CongruenceSystem, Progression, crt_solve
from comshuffle.regularity import FiniteLang, decide_finite, nerode_evidence
from comshuffle.words import Alphabet, ParikhVector, parikh, project_word

A = Alphabet.of("a")
AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")

WORD_IDENTITY_LEN = 12       # criterion 1
CLOSURE_SUM_BOUND = 16       # criterion 2
CRT_MAX_MODULUS = 8          # criterion 3
LEMMA_MAX_T = 6              # criterion 4
LEMMA_MAX_N = 6
RANDOM_CASES = 200           # criteria 5 and 6
ENUM_BOUND = 12
FINITE_RANDOM_CASES = 100    # criterion 7
AUTOMATA_CASES = 100         # criterion 8
AUTOMATA_WORD_LEN = 10
PROJECT_WORD_LEN = 8
EXAMPLE_BOUND = 9            # criterion 10


def passline(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS")


def random_dpl_union(rng: random.Random, alphabet: Alphabet, max_terms: int = 3) -> DplUnion:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        progs = {}
        for a in alphabet:
            if rng.random() < 0.75:
                progs[a] = Progression(rng.randint(0, 3), rng.randint(1, 4))
        terms.append(DiagonalPeriodic.make(alphabet, progs))
    return DplUnion.of(alphabet, terms)


def words_upto(alphabet: Alphabet, n: int):
    for k in range(n + 1):
        for tup in product(alphabet.letters, repeat=k):
            yield "".join(tup)


def test_criterion_01_equal_count_identity():
    start = time.monotonic()
    expr, _ = parse("sh*({ab})", AB)
    value = eval_expr(expr, AB)
    for w in words_upto(AB, WORD_IDENTITY_LEN):
        assert _member_word(value, w) == (w.count("a") == w.count("b")), w
    assert time.monotonic() - start < 5.0
    passline(1, "equal-count identity up to length 12")


def test_criterion_02_two_generator_closure_identity():
    start = time.monotonic()
    base = VectorSet(
        AB,
        frozenset({parikh("ab", AB), parikh("abb", AB)}),
        CLOSURE_SUM_BOUND,
    )
    closed = closure_under_addition(base, CLOSURE_SUM_BOUND)
    for v in all_vectors(AB, CLOSURE_SUM_BOUND):
        expected = v.total() == 0 or v["a"] <= v["b"] <= 2 * v["a"]
        assert (v in closed.vectors) == expected, v.as_dict()
    assert time.monotonic() - start < 5.0
    passline(2, "a(b|bb) closure matches the two inequalities")


def test_criterion_03_crt_exhaustive():
    start = time.monotonic()
    moduli_choices = range(1, CRT_MAX_MODULUS + 1)
    checked = 0
    for size in (1, 2, 3):
        for moduli in product(moduli_choices, repeat=size):
            lcm = math.lcm(*moduli)
            for residues in product(*(range(m) for m in moduli)):
                system = CongruenceSystem(tuple(zip(residues, moduli)))
                got = crt_solve(system)
                solutions = [
                    x
                    for x in range(lcm)
                    if all(x % m == r for r, m in zip(residues, moduli))
                ]
                if not solutions:
                    assert got is None, system
                else:
                    assert got == (solutions[0], lcm), system
                checked += 1
    assert checked > 0
    assert time.monotonic() - start < 30.0
    passline(3, f"CRT agrees with exhaustive search on {checked} systems")


def test_criterion_04_lemma_grid():
    mismatches = 0
    for t in range(LEMMA_MAX_T + 1):
        for n in range(1, LEMMA_MAX_N + 1):
            for r in range(n):
                folded = from_generators(
                    GenIntersect((Fcount("a", t), Fmod("a", r, n))), AB
                )
                direct = DplUnion.of(
                    AB, [lemma_closed_form(AB, {"a": t}, {"a": r}, {"a": n})]
                )
                ok, _ = sets_equal(
                    dpl_enumerate(folded, t + 2 * n + 2),
                    dpl_enumerate(direct, t + 2 * n + 2),
                )
                mismatches += 0 if ok else 1
    assert mismatches == 0
    passline(4, "closed-form lemma matches clause folding on the full grid")


def test_criterion_05_iterated_shuffle_closed_form():
    start = time.monotonic()
    rng = random.Random(501)
    for i in range(RANDOM_CASES):
        alphabet = rng.choice([A, AB, ABC])
        u = random_dpl_union(rng, alphabet)
        got = dpl_enumerate(dpl_iterated_shuffle(u), ENUM_BOUND)
        expected = closure_under_addition(dpl_enumerate(u, ENUM_BOUND), ENUM_BOUND)
        ok, cex = sets_equal(got, expected)
        assert ok, f"case {i}: disagree at {cex.as_dict() if cex else None}"
    assert time.monotonic() - start < 120.0
    passline(5, f"iterated shuffle matches additive closure on {RANDOM_CASES} random inputs")


def test_criterion_06_binary_shuffle():
    rng = random.Random(601)
    for i in range(RANDOM_CASES):
        alphabet = rng.choice([AB, ABC])
        u1 = random_dpl_union(rng, alphabet)
        u2 = random_dpl_union(rng, alphabet)
        got = dpl_enumerate(dpl_shuffle(u1, u2), ENUM_BOUND)
        e1, e2 = dpl_enumerate(u1, ENUM_BOUND), dpl_enumerate(u2, ENUM_BOUND)
        expected = VectorSet(
            alphabet,
            frozenset(
                x + y
                for x in e1.vectors
                for y in e2.vectors
                if (x + y).total() <= ENUM_BOUND
            ),
            ENUM_BOUND,
        )
        ok, cex = sets_equal(got, expected)
        assert ok, f"case {i}: disagree at {cex.as_dict() if cex else None}"
    passline(6, f"binary shuffle matches pairwise vector sums on {RANDOM_CASES} random pairs")


def _closure_of_words(alphabet: Alphabet, words, bound: int) -> VectorSet:
    base = VectorSet(
        alphabet, frozenset(parikh(w, alphabet) for w in words), bound
    )
    return closure_under_addition(base, bound)


def _check_finite_verdict(alphabet: Alphabet, words) -> None:
    lang = FiniteLang.of(alphabet, words)
    verdict = decide_finite(lang)
    if verdict.regular:
        got = dpl_enumerate(verdict.representation, ENUM_BOUND)
        expected = _closure_of_words(alphabet, words, ENUM_BOUND)
        ok, cex = sets_equal(got, expected)
        assert ok, f"{words}: representation off at {cex.as_dict() if cex else None}"
    else:
        witness = verdict.witness_letter
        pair_letters = [witness] + [
            a for a in lang.occurring_letters() if a != witness
        ][:1]
        pair = alphabet.restrict(pair_letters)
        projected = [project_word(w, pair_letters) for w in words]
        closure = _closure_of_words(pair, projected, ENUM_BOUND)
        member = lambda w: parikh(w, pair) in closure.vectors
        ev = nerode_evidence(member, pair, 6)
        counts = dict(ev.class_counts_per_bound)
        assert counts[3] < counts[4] < counts[5] < counts[6], words


def test_criterion_07_finite_language_decision():
    pinned = [
        (["ab"], False),
        (["ab", "a", "b"], True),
        (["abb", "a"], False),
        (["a", "b"], True),
        (["aa"], True),
    ]
    for words, expect_regular in pinned:
        assert decide_finite(FiniteLang.of(AB, words)).regular == expect_regular, words
        _check_finite_verdict(AB, words)
    rng = random.Random(701)
    pool = ["a", "b", "aa", "bb", "ab", "aab", "abb", "aabb", "bbb"]
    for _ in range(FINITE_RANDOM_CASES):
        words = rng.sample(pool, rng.randint(1, 4))
        _check_finite_verdict(AB, words)
    passline(7, "finite-language verdicts verified on pinned and random suites")


def test_criterion_08_automata_round_trip_and_projection():
    rng = random.Random(801)
    for i in range(AUTOMATA_CASES):
        alphabet = AB if i % 10 < 7 else ABC
        u = random_dpl_union(rng, alphabet, max_terms=2)
        m = minimize(dpl_to_dfa(u))
        assert is_commutative(m), f"case {i}"
        word_len = AUTOMATA_WORD_LEN if alphabet is AB else 7
        expected = set(
            word_language(lambda v: dpl_union_member(v, u), alphabet, word_len)
        )
        got = {w for w in words_upto(alphabet, word_len) if m.accepts(w)}
        assert got == expected, f"case {i}: language differs"
        keep = alphabet.letters[:-1]
        p = project_automaton(m, keep)
        assert p.n_states <= m.n_states, f"case {i}: projection grew"
        projected = dpl_project(u, keep)
        kept_alpha = alphabet.restrict(keep)
        for w in words_upto(kept_alpha, PROJECT_WORD_LEN if alphabet is AB else 6):
            assert p.accepts(w) == dpl_union_member(
                parikh(w, kept_alpha), projected
            ), f"case {i}: projection differs on {w!r}"
    passline(8, f"compilation, minimization and projection verified on {AUTOMATA_CASES} cases")


def test_criterion_09_classification_oracles():
    pure_group = [
        Fmod("a", 1, 2),
        GenIntersect((Fmod("a", 1, 3), Fmod("b", 2, 4))),
        GenUnion((Fmod("a", 0, 2), Fmod("b", 1, 3))),
    ]
    for expr in pure_group:
        m = minimize(dpl_to_dfa(from_generators(expr, AB)))
        assert is_permutation(m), expr
    pure_aperiodic = [
        Fcount("a", 2),
        GenIntersect((Fcount("a", 1), Fcount("b", 3))),
        GenUnion((Fcount("a", 1), GammaStar(frozenset("b")))),
        GammaStar(frozenset("a")),
    ]
    for expr in pure_aperiodic:
        m = minimize(dpl_to_dfa(from_generators(expr, AB)))
        assert is_commutative(m) and is_aperiodic(m), expr
    parity = minimize(dpl_to_dfa(from_generators(Fmod("a", 1, 2), AB)))
    assert not is_aperiodic(parity)
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
    assert is_permutation(swap)
    passline(9, "group and aperiodic classification matches the pinned oracles")


def _example_terms():
    def term(word, tail=""):
        return DiagonalPeriodic.perm_shuffle(parikh(word, ABC), tail)

    item1 = DplUnion.of(ABC, [term("ab"), term("c", "ab")])
    item2 = DplUnion.of(ABC, [term("ab", "c"), term("ac", "ab")])
    item3 = DplUnion.of(
        ABC, [term("ab"), term("c", "ab"), term("abb", "ab")]
    )
    item4 = DplUnion.of(
        ABC, [term("ab"), term("c", "ab"), term("abb", "a"), term("bb")]
    )
    return item1, item2, item3, item4


def test_criterion_10_aperiodic_worked_examples():
    item1, item2, item3, item4 = _example_terms()

    for item in (item1, item2):
        with pytest.raises(UndecidedError):
            union_iterated_shuffle(item)
        cache = {}

        def member(w, item=item, cache=cache):
            v = parikh(w, ABC)
            if v not in cache:
                cache[v] = union_closure_member(v, item)
            return cache[v]

        ev = nerode_evidence(member, ABC, 5)
        counts = dict(ev.class_counts_per_bound)
        assert counts[3] < counts[4] < counts[5]

    for item in (item3, item4):
        closure = union_iterated_shuffle(item)
        base = predicate_enumerate(
            lambda v: union_member(v, item), ABC, EXAMPLE_BOUND
        )
        expected = closure_under_addition(base, EXAMPLE_BOUND)
        got = predicate_enumerate(
            lambda v: dpl_union_member(v, closure), ABC, EXAMPLE_BOUND
        )
        ok, cex = sets_equal(got, expected)
        assert ok, f"normal form off at {cex.as_dict() if cex else None}"
    passline(10, "worked examples: two undecided with evidence, two exact normal forms")
