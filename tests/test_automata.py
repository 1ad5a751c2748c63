import math
import random
import time
from functools import cached_property
from itertools import combinations, product

import pytest

from comshuffle import automata
from comshuffle.automata import (
    EXTRACT_GRID_GUARD,
    Dfa,
    _rho,
    complete,
    dfa_from_dict,
    dfa_to_dict,
    dfa_to_dot,
    dfa_to_dpl,
    dpl_to_dfa,
    equivalence_witness,
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
    maximal_terms,
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


def walk(start, delta, w):
    """The state w leads to from `start` through the `(state, letter) -> next`
    mapping, one step at a time; None once a step is missing."""
    q = start
    for a in w:
        if (q, a) not in delta:
            return None
        q = delta[q, a]
    return q


@pytest.mark.parametrize("letters", ["ab", "abc"])
def test_run_and_accepts_agree_with_a_step_by_step_walk(letters):
    rng = random.Random(29)
    alphabet = Alphabet.of(letters)
    # "z" lies outside the alphabet
    symbols = letters + "z"
    last_step_missing = 0
    for _ in range(150):
        n = rng.randint(1, 8)
        keep = rng.choice((0.6, 0.85, 1.0))
        delta = {(q, a): rng.randrange(n) for q in range(n) for a in letters
                 if rng.random() < keep}
        start = rng.randrange(n)
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        d = Dfa.make(alphabet, n, start, finals, delta)
        words = ["", "z", letters[0] + "z", "z" + letters[0]]
        words += ["".join(rng.choice(symbols) for _ in range(rng.randint(0, 6)))
                  for _ in range(60)]
        # a word ending on a missing transition: reach a state that lacks a
        # letter, then read that letter
        for w in list(words):
            q = walk(start, delta, w)
            if q is not None and len(w) < 6:
                words += [w + a for a in letters if (q, a) not in delta]
        for w in words:
            expected = walk(start, delta, w)
            assert d.run(w) == expected, (delta, start, w)
            assert d.accepts(w) == (expected in finals), (delta, start, w)
            if expected is None and w and walk(start, delta, w[:-1]) is not None:
                last_step_missing += w[-1] in letters
    assert last_step_missing > 100


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


@pytest.mark.parametrize("source", [-1, 2])
def test_make_rejects_a_source_state_out_of_range(source):
    # a negative source would otherwise index a row from its end
    with pytest.raises(ValueError, match="endpoint out of range"):
        Dfa.make(AB, 2, 0, [0], {(source, "a"): 0})


def test_dfa_rejects_a_short_row():
    with pytest.raises(ValueError, match="row of length 1, expected 2"):
        Dfa(AB, 2, 0, frozenset(), ((0, 1), (0,)))


@pytest.mark.parametrize("letters", ["ab", "ba"])
def test_make_stores_rows_that_give_back_its_triples(letters):
    # the triples sort lexicographically, not in alphabet order
    alphabet = Alphabet.of(letters)
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 8)
        delta = {
            (q, a): rng.randrange(n) for q in range(n) for a in letters if rng.random() < 0.8
        }
        d = Dfa.make(alphabet, n, rng.randrange(n), rng.sample(range(n), rng.randint(0, n)),
                     delta)
        assert d.delta == tuple(sorted((q, a, r) for (q, a), r in delta.items()))
        assert dfa_from_dict(dfa_to_dict(d)) == d


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


def random_count_set(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return 0
    if pick == 1:
        return rng.randint(1, 3)
    return Progression(rng.randint(0, 3), rng.randint(1, 3))


def grid_size(u):
    """prod (T_a + P_a) of the count grid: T_a the largest max(k - p + 1, 0)
    of a progression k + pN and c + 1 of an exact count c of the letter,
    P_a the lcm of its periods."""
    size = 1
    for sets in zip(*(t.sets for t in u.terms)):
        top = max(max(c.offset - c.period + 1, 0) if isinstance(c, Progression) else c + 1
                  for c in sets)
        size *= top + math.lcm(*(c.period for c in sets if isinstance(c, Progression)))
    return size


def test_dpl_to_dfa_matches_membership_with_exact_counts():
    # the unminimized DFA, over unions mixing zeros, nonzero exact counts and
    # progressions; the empty union is one rejecting state
    rng = random.Random(59)
    for alphabet, bound in ((AB, 8), (ABC, 5)):
        unions = [DplUnion.empty(alphabet)]
        for _ in range(40):
            terms = [DiagonalPeriodic(alphabet, tuple(random_count_set(rng) for _ in alphabet))
                     for _ in range(rng.randint(1, 4))]
            unions.append(DplUnion.of(alphabet, terms))
        for u in unions:
            d = dpl_to_dfa(u)
            assert d.n_states <= grid_size(u) + 1, u
            for w in words_upto(alphabet, bound):
                assert d.accepts(w) == dpl_union_member(parikh(w, alphabet), u), (u, w)
        d = dpl_to_dfa(unions[0])
        assert (d.n_states, d.finals) == (1, frozenset())


def test_dead_terms_share_one_dead_state():
    # a^30 | b^30: 31 counts of a with b at zero, 30 of b with a at zero, and
    # one dead state for every vector both terms have passed, of a grid of 1024
    u = DplUnion.of(AB, [DiagonalPeriodic.make(AB, {}, {"a": 30}),
                         DiagonalPeriodic.make(AB, {}, {"b": 30})])
    assert grid_size(u) == 1024
    d = dpl_to_dfa(u)
    assert d.n_states == 62
    assert d.accepts("a" * 30) and d.accepts("b" * 30) and not d.accepts("ab")


def test_intersection_chain_compiles_and_minimizes_fast():
    # four & operands of three-letter F(x, r, n) unions: 54 terms
    u = from_generators(GenIntersect(tuple(
        GenUnion(tuple(Fmod(x, r, n) for x in "abc"))
        for r, n in ((0, 2), (1, 3), (0, 5), (1, 2))
    )), ABC)
    assert len(u.terms) == 54
    start = time.process_time()
    d = dpl_to_dfa(u)
    m = minimize(d)
    assert (d.n_states, m.n_states) == (27000, 13500)
    # a smoke bound in CPU seconds: about 0.4 on a 2-core x86-64 machine,
    # 21 for a product of per-term counters
    assert time.process_time() - start < 10


def test_dpl_to_dfa_guard():
    u = from_generators(Fmod("a", 0, 50), AB)
    with pytest.raises(SizeGuardError):
        dpl_to_dfa(u, guard=10)


def test_long_grid_line_is_refused_before_its_tables():
    # each union reaches more than the guard's states along a^n alone, so it is
    # refused at once instead of building a table of 10**9 counts
    A = Alphabet.of("a")
    for u in (from_generators(Fmod("a", 0, 10**9), A),
              from_generators(Fcount("a", 10**9), A),
              DplUnion.of(A, [DiagonalPeriodic.make(A, {}, {"a": 10**9})]),
              from_generators(GenUnion(tuple(Fmod("a", 0, n) for n in (101, 103, 107, 109, 113))), A)):
        with pytest.raises(SizeGuardError) as info:
            dpl_to_dfa(u)
        assert (info.value.limit, info.value.observed) == (250_000, 250_001)
    # each line fits the guard, the grid does not: the walk refuses it
    u = from_generators(GenIntersect((Fmod("a", 0, 5), Fmod("b", 0, 5))), AB)
    with pytest.raises(SizeGuardError) as info:
        dpl_to_dfa(u, guard=10)
    assert (info.value.limit, info.value.observed) == (10, 11)
    assert dpl_to_dfa(u, guard=25).n_states == 25


def test_state_guard_carries_its_numbers():
    u = from_generators(Fmod("a", 0, 50), AB)
    with pytest.raises(SizeGuardError) as info:
        dpl_to_dfa(u, guard=10)
    err = info.value
    assert (err.guard, err.limit, err.observed) == ("states", 10, 11)
    assert str(err) == "automaton guard exceeded: more than 10 states"


def test_extraction_grid_guard_carries_its_numbers():
    # every letter adds one modulo 47, so each letter map is a 47-cycle and
    # the extraction grid has 47^3 points
    n = 47
    d = Dfa.make(ABC, n, 0, [0], {(q, a): (q + 1) % n for q in range(n) for a in "abc"})
    with pytest.raises(SizeGuardError) as info:
        dfa_to_dpl(d)
    err = info.value
    assert (err.guard, err.limit, err.observed) == (
        "extraction_grid", EXTRACT_GRID_GUARD, n ** 3
    )
    assert str(err) == f"extraction grid too large: {n ** 3} points"


def test_size_guard_numbers_default_to_none():
    err = SizeGuardError("some guard")
    assert (err.guard, err.limit, err.observed) == (None, None, None)


def test_minimize_preserves_language():
    rng = random.Random(31)
    for _ in range(20):
        u = random_union(rng, AB)
        d = dpl_to_dfa(u)
        m = minimize(d)
        assert m.n_states <= complete(d).n_states
        for w in words_upto(AB, 8):
            assert m.accepts(w) == d.accepts(w)


def random_dfa(rng, alphabet):
    """A DFA with 1 to 8 states, some transitions missing and some states
    possibly unreachable."""
    n = rng.randint(1, 8)
    delta = {
        (q, a): rng.randrange(n)
        for q in range(n)
        for a in alphabet
        if rng.random() < 0.85
    }
    finals = [q for q in range(n) if rng.random() < 0.4]
    return Dfa.make(alphabet, n, rng.randrange(n), finals, delta)


def moore_minimize(d):
    """Reference minimization: complete with a sink, keep the reachable
    states, refine by (finality, successor blocks) until the block count is
    stable, and number the blocks in BFS order from the start state."""
    n = d.n_states + 1
    step = {(q, a): n - 1 for q in range(n) for a in d.alphabet}
    step.update({(q, a): r for q, a, r in d.delta})
    reachable = [d.start]
    for q in reachable:
        for a in d.alphabet:
            if step[(q, a)] not in reachable:
                reachable.append(step[(q, a)])
    block = {q: q in d.finals for q in reachable}
    while True:
        sig = {
            q: (block[q],) + tuple(block[step[(q, a)]] for a in d.alphabet)
            for q in reachable
        }
        ids = {v: i for i, v in enumerate(dict.fromkeys(sig.values()))}
        if len(ids) == len(set(block.values())):
            break
        block = {q: ids[sig[q]] for q in reachable}
    number = {block[d.start]: 0}
    rep = [d.start]
    for q in rep:
        for a in d.alphabet:
            r = step[(q, a)]
            if block[r] not in number:
                number[block[r]] = len(number)
                rep.append(r)
    delta = {
        (i, a): number[block[step[(q, a)]]] for i, q in enumerate(rep) for a in d.alphabet
    }
    finals = {number[block[q]] for q in reachable if q in d.finals}
    return Dfa.make(d.alphabet, len(number), 0, finals, delta)


@pytest.mark.parametrize("alphabet", [AB, ABC])
def test_minimize_equals_reference_moore_refinement(alphabet):
    rng = random.Random(41)
    partial = unreachable = 0
    for _ in range(100):
        d = random_dfa(rng, alphabet)
        partial += not d.is_complete()
        unreachable += minimize(d).n_states < complete(d).n_states
        assert minimize(d) == moore_minimize(d), dfa_to_dict(d)
    assert partial > 20 and unreachable > 20


def test_minimize_of_a_long_threshold_chain():
    d = dpl_to_dfa(from_generators(Fcount("a", 300), AB))
    m = minimize(d)
    assert m == moore_minimize(d)
    assert m.n_states == 301


def random_term_sets(rng, alphabet):
    """Count sets of one term: progressions with k >= p and with k < p, and
    exact counts, zero among them."""
    sets = []
    for _ in alphabet:
        pick, p = rng.randrange(3), rng.randint(1, 4)
        if pick == 0:
            sets.append(rng.randint(0, 3))
        else:
            sets.append(Progression(rng.randint(p, 6) if pick == 1 else rng.randrange(p), p))
    return tuple(sets)


def test_one_term_union_compiles_to_its_minimal_dfa():
    # the compiled grid of one term is already minimal, in minimize's
    # numbering, and minimize returns it unchanged
    rng = random.Random(71)
    kinds = set()
    for alphabet in (Alphabet.of("a"), AB, ABC):
        for _ in range(110):
            sets = random_term_sets(rng, alphabet)
            for s in sets:
                if isinstance(s, Progression):
                    kinds.add("k >= p" if s.offset >= s.period else "k < p")
                else:
                    kinds.add("exact" if s else "zero")
            d = dpl_to_dfa(DplUnion.of(alphabet, [DiagonalPeriodic(alphabet, sets)]))
            assert d.minimal, sets
            assert minimize(d) is d
            assert d == moore_minimize(d), sets
    assert kinds == {"k >= p", "k < p", "exact", "zero"}
    d = dpl_to_dfa(DplUnion.empty(AB))
    assert d.minimal and d == moore_minimize(d)


def test_multi_term_unions_are_left_to_minimize():
    # F(a,1) | F(a,2): a grid of 3 counts, of which 1 and 2 are equivalent
    u = from_generators(GenUnion((Fcount("a", 1), Fcount("a", 2))), Alphabet.of("a"))
    d = dpl_to_dfa(u)
    assert not d.minimal
    assert (d.n_states, minimize(d).n_states) == (3, 2)
    rng = random.Random(73)
    for alphabet in (AB, ABC):
        for _ in range(40):
            terms = {DiagonalPeriodic(alphabet, random_term_sets(rng, alphabet))
                     for _ in range(rng.randint(2, 3))}
            d = dpl_to_dfa(DplUnion.of(alphabet, terms))
            assert d.minimal == (len(terms) == 1)
            assert minimize(d) == moore_minimize(d), terms


def test_equivalence_of_compiled_and_minimized_machines():
    rng = random.Random(43)
    for _ in range(10):
        d = dpl_to_dfa(random_union(rng, AB))
        assert equivalence_witness(d, minimize(d)) is None
        assert equivalence_witness(minimize(d), d) is None


def test_equivalence_finds_a_shortest_witness():
    d40 = dpl_to_dfa(from_generators(Fcount("a", 40), AB))
    d41 = dpl_to_dfa(from_generators(Fcount("a", 41), AB))
    assert equivalence_witness(d40, d41) == "a" * 40
    assert equivalence_witness(minimize(d41), d40) == "a" * 40


def test_equivalence_of_incomplete_machine_and_its_completion():
    d = Dfa.make(AB, 2, 0, [1], {(0, "a"): 1, (1, "b"): 1})
    assert not d.is_complete()
    assert equivalence_witness(d, complete(d)) is None
    assert equivalence_witness(complete(d), d) is None
    assert equivalence_witness(d, Dfa.make(AB, 1, 0, [], {})) == "a"


def test_equivalence_needs_one_alphabet():
    with pytest.raises(ValueError):
        equivalence_witness(even_a_dfa(), Dfa.make(ABC, 1, 0, [0], {}))


def rho_by_powers(f):
    """Tail and cycle of f's powers, found by composing f until a power repeats."""
    powers = [tuple(range(len(f)))]
    seen = {powers[0]: 0}
    while True:
        g = tuple(f[x] for x in powers[-1])
        if g in seen:
            return seen[g], len(powers) - seen[g]
        seen[g] = len(powers)
        powers.append(g)


@pytest.mark.parametrize(
    "f, expected",
    [
        ((1, 2, 0), (0, 3)),  # a pure cycle
        ((1, 2, 3, 3), (3, 1)),  # a pure tail onto a fixed point
        # 0->1->2 into the 2-cycle 3<->4, 8 into the 3-cycle 5->6->7
        ((1, 2, 3, 4, 3, 6, 7, 5, 5), (3, 6)),
    ],
)
def test_rho_matches_composed_powers(f, expected):
    assert _rho(f) == rho_by_powers(f) == expected


def test_rho_matches_composed_powers_on_random_maps():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(1, 12)
        f = tuple(rng.randrange(n) for _ in range(n))
        assert _rho(f) == rho_by_powers(f), f


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


def random_term_union(rng, alphabet, max_terms=3):
    """1–3 terms; each letter gets a progression k + pN (k <= 3, p <= 4),
    an exact count <= 3 or the count zero."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        sets = []
        for _ in alphabet:
            r = rng.random()
            if r < 0.55:
                sets.append(Progression(rng.randint(0, 3), rng.randint(1, 4)))
            else:
                sets.append(rng.randint(0, 3) if r < 0.8 else 0)
        terms.append(DiagonalPeriodic(alphabet, tuple(sets)))
    return DplUnion.of(alphabet, terms)


def test_extraction_is_exact_or_refused():
    # compiled, completed and projected machines of unions with progressions
    # and exact counts: the extraction equals the minimal DFA, or the
    # language needs an exact count and is refused
    rng = random.Random(2026)
    machines = []
    for _ in range(300):
        alphabet = Alphabet.of(rng.choice(["a", "ab", "abc"]))
        d = dpl_to_dfa(random_term_union(rng, alphabet))
        machines += [d, complete(d)]
        if len(alphabet) > 1:
            machines.append(project_automaton(d, rng.sample(alphabet.letters, len(alphabet) - 1)))
    extracted = 0
    for d in machines:
        try:
            u = dfa_to_dpl(d)
        except NotInPositiveClassError as err:
            assert str(err).startswith("no diagonal periodic term fits the accepted point")
            continue
        extracted += 1
        assert not any(t.exact for t in u.terms)
        assert maximal_terms(u) == u
        assert equivalence_witness(minimize(d), dpl_to_dfa(u)) is None
        assert dfa_to_dpl(minimize(d)).terms == u.terms
    assert 300 < extracted < len(machines)


def test_minimize_returns_its_own_output_unchanged():
    rng = random.Random(7)
    for _ in range(30):
        m = minimize(dpl_to_dfa(random_term_union(rng, ABC)))
        assert minimize(m) is m
        # an unmarked copy of a minimal DFA is minimized again, to itself
        copy = dfa_from_dict(dfa_to_dict(m))
        assert not copy.minimal
        assert minimize(copy) == m


def _outcome(f, d):
    try:
        return f(d)
    except (CriterionError, NotInPositiveClassError) as err:
        return type(err), str(err)


def test_the_analysis_of_a_dfa_runs_once(monkeypatch):
    # report, then extraction, on a minimized DFA: one commutativity check
    # and one `_rho` per letter between them
    rhos, checks = [], []
    real_rho, real_check = automata._rho, Dfa.commutative.func
    monkeypatch.setattr(automata, "_rho", lambda f: rhos.append(f) or real_rho(f))
    counted = cached_property(lambda d: checks.append(d) or real_check(d))
    counted.__set_name__(Dfa, "commutative")
    monkeypatch.setattr(Dfa, "commutative", counted)
    rng = random.Random(31)
    asks = (report, is_aperiodic, dfa_to_dpl)
    for _ in range(40):
        m = minimize(dpl_to_dfa(random_term_union(rng, rng.choice((AB, ABC)))))
        rhos.clear()
        checks.clear()
        first = [_outcome(f, m) for f in asks]
        assert len(rhos) == len(m.alphabet)
        assert checks == [m]
        # an uncached copy, asked in the other order, answers the same
        copy = dfa_from_dict(dfa_to_dict(m))
        assert "lines" not in vars(copy) and "commutative" not in vars(copy)
        assert [_outcome(f, copy) for f in reversed(asks)][::-1] == first
        assert [_outcome(f, m) for f in reversed(asks)][::-1] == first


def test_extraction_of_a_long_threshold_is_one_term():
    # F(a,4000): the a row has a tail of 4000, and every point below it is
    # rejected by one table lookup
    m = minimize(dpl_to_dfa(from_generators(Fcount("a", 4000), AB)))
    assert dfa_to_dpl(m).terms == (
        DiagonalPeriodic(AB, (Progression(4000, 1), Progression(0, 1))),
    )


def test_extraction_skips_a_covered_class():
    # a^{1+N} ∪ a^{2+N} ⧢ b^{2+2N}: the grid point (2, 0) is accepted, but its
    # class a^{2+N} lies in the term a^{1+N} kept for (1, 0), so it adds none
    terms = (
        DiagonalPeriodic(AB, (Progression(1, 1), 0)),
        DiagonalPeriodic(AB, (Progression(2, 1), Progression(2, 2))),
    )
    assert dfa_to_dpl(dpl_to_dfa(DplUnion.of(AB, terms))).terms == terms


def _keeps(alphabet):
    letters = alphabet.letters
    return [c for r in range(1, len(letters) + 1) for c in combinations(letters, r)]


@pytest.mark.parametrize("alphabet", [AB, ABC])
def test_projection_keeps_aperiodic_languages_aperiodic(alphabet):
    # all periods one: a star-free commutative language, whose projections
    # are star-free too
    rng = random.Random(len(alphabet))
    for _ in range(40):
        terms = [
            DiagonalPeriodic(alphabet, tuple(
                Progression(rng.randint(0, 3), 1) if rng.random() < 0.6 else rng.randint(0, 2)
                for _ in alphabet
            ))
            for _ in range(rng.randint(1, 3))
        ]
        m = minimize(dpl_to_dfa(DplUnion.of(alphabet, terms)))
        assert is_aperiodic(m)
        for keep in _keeps(alphabet):
            assert is_aperiodic(minimize(project_automaton(m, keep))), (terms, keep)


@pytest.mark.parametrize("alphabet", [AB, ABC])
def test_projection_keeps_group_languages_group(alphabet):
    # every offset below its period: a union of residue classes, recognized
    # by a permutation automaton, and so are its projections
    rng = random.Random(10 + len(alphabet))
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 3)):
            periods = [rng.randint(1, 4) for _ in alphabet]
            terms.append(DiagonalPeriodic(
                alphabet, tuple(Progression(rng.randrange(p), p) for p in periods)
            ))
        m = minimize(dpl_to_dfa(DplUnion.of(alphabet, terms)))
        assert is_permutation(m)
        for keep in _keeps(alphabet):
            assert is_permutation(minimize(project_automaton(m, keep))), (terms, keep)
