"""The iterated shuffle of a union as an exact fold of linear sets: regular
results equal the bounded closure, non-regular verdicts come with a
certificate, and the unions the earlier absorption search decided keep
equivalent results."""

import json
import random
from collections import Counter

import pytest

from comshuffle import aperiodic
from comshuffle.aperiodic import union_iterated_shuffle
from comshuffle.automata import dpl_to_dfa, equivalence_witness, minimize
from comshuffle.cli import _as_union, _member_counts, eval_expr, main
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    dpl_project,
    dpl_union_from_dict,
    dpl_union_member,
    in_count_set,
    term_subset,
)
from comshuffle.errors import NonRegularError, SizeGuardError, UndecidedError
from comshuffle.exprlang import parse
from comshuffle.oracle import closure_under_addition, count_tuples, predicate_enumerate, sets_equal
from comshuffle.progressions import Progression
from comshuffle.words import Alphabet, ParikhVector, parikh, word_of

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")
BOUND = {2: 12, 3: 8}  # coordinate-sum bound of the oracle closure, by alphabet size


def random_union(rng: random.Random, alphabet: Alphabet, max_period: int) -> DplUnion:
    """1–4 terms; each letter gets a progression k + pN (k <= 2, p <= max_period)
    with probability 0.4 and otherwise an exact count <= 2."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        sets = tuple(
            Progression(rng.randint(0, 2), rng.randint(1, max_period))
            if rng.random() < 0.4
            else rng.randint(0, 2)
            for _ in alphabet
        )
        terms.append(DiagonalPeriodic(alphabet, sets))
    return DplUnion.of(alphabet, terms)


def closure_window(u: DplUnion):
    bound = BOUND[len(u.alphabet)]
    base = predicate_enumerate(lambda v: dpl_union_member(v, u), u.alphabet, bound)
    return closure_under_addition(base, bound)


def assert_exact(u: DplUnion, closure: DplUnion) -> None:
    expected = closure_window(u)
    got = predicate_enumerate(lambda v: dpl_union_member(v, closure), u.alphabet, expected.bound)
    ok, cex = sets_equal(got, expected)
    assert ok, f"{u} disagrees at {cex.as_dict() if cex else None}"


def assert_antichain(u: DplUnion) -> None:
    for t in u.terms:
        assert not any(s != t and term_subset(t, s) for s in u.terms), t


def test_regular_results_equal_the_bounded_closure():
    rng = random.Random(1105)
    verdicts = {"regular": 0, "non-regular": 0}
    for i in range(60):
        alphabet = AB if i % 2 else ABC
        u = random_union(rng, alphabet, 4)
        try:
            closure = union_iterated_shuffle(u)
        except NonRegularError as err:
            verdicts["non-regular"] += 1
            # the certificate's letter occurs in the closure over its sub-alphabet
            window = closure_window(u).vectors
            assert any(
                v[err.letter] and v.support() <= set(err.subalphabet) for v in window
            ), u
            continue
        verdicts["regular"] += 1
        assert_exact(u, closure)
        assert_antichain(closure)
    assert min(verdicts.values()) >= 15, verdicts


def test_no_non_regular_verdict_when_every_letter_has_a_unary_word():
    # with a word a^n for every letter a the closure is regular, so the fold
    # must return a union and never a non-regular or undecided verdict
    rng = random.Random(1106)
    for i in range(30):
        alphabet = AB if i % 2 else ABC
        u = random_union(rng, alphabet, 4)
        unary = [
            DiagonalPeriodic.perm_shuffle(
                ParikhVector(alphabet, tuple(rng.randint(1, 3) if b == a else 0 for b in alphabet))
            )
            for a in alphabet
        ]
        u = DplUnion.of(alphabet, u.terms + tuple(unary))
        closure = union_iterated_shuffle(u)
        assert_exact(u, closure)
        assert_antichain(closure)


def _parse_term(alphabet: Alphabet, text: str) -> DiagonalPeriodic:
    """A term written one count set per letter: "2" or "k+pN" ("k+N" for p = 1)."""
    sets = []
    for item in text.split():
        if "+" in item:
            k, p = item[:-1].split("+")
            sets.append(Progression(int(k), int(p or 1)))
        else:
            sets.append(int(item))
    return DiagonalPeriodic(alphabet, tuple(sets))


# union_iterated_shuffle before the fold (absorption search plus a bounded
# check) on the period-one unions of random_union(random.Random(2026), ., 1),
# case i over abc for odd i and ab for even i; only the cases it decided.
PARENT_CLOSURES = {
    2: ['0 0', '0+N 2+N', '1+N 2+N', '1+N 4+N', '2+N 4+N', '2+N 6+N'],
    6: ['0 0', '0 1+N', '0 2+2N', '0 3+N', '1 2', '1 3', '1 3+N', '1 4', '1 4+N', '1 5', '1 5+N',
        '1 6+N', '1 7+N', '1 8+N', '2+2N 0+N', '2+2N 1+N', '2+2N 2+N', '2+2N 3+N', '3+2N 2+N',
        '3+2N 3+N', '3+2N 4+N', '3+2N 5+N', '4+2N 4+N', '4+2N 5+N', '4+2N 6+N', '4+2N 7+N'],
    10: ['0 0', '0 1+N', '1+N 0+N', '1+N 1+N', '2+2N 0', '2+2N 1+N', '3+N 0+N', '3+N 1+N'],
    11: ['0 0 0', '0 0 0+N', '0 1+N 0', '0 1+N 0+N'],
    14: ['0 0', '0+N 1+N', '2+N 0', '2+N 1+N'],
    16: ['0 0', '2 1+N', '2+N 2', '4 2+N', '4+N 3+N'],
    17: ['0 0 0', '0 0 0+N'],
    18: ['0 0', '0 1+N', '0 2+N'],
    19: ['0 0 0', '0+N 0+N 1+N', '0+N 1+N 0', '0+N 1+N 1+N', '1+N 2+N 3+N', '1+N 3+N 3+N'],
    22: ['0 0', '1+N 0', '2+N 1+N', '3+N 1+N', '4+N 3+N', '5+N 3+N'],
    26: ['0 0', '0 2+2N', '1+N 2+N', '1+N 4+N'],
    29: ['0 0 0', '0 1+N 2+N', '0+N 0 0+N', '0+N 1+N 2+N', '2+N 2+N 2+N', '2+N 3+N 4+N'],
    30: ['0 0', '0 2+2N', '1+N 1+N', '1+N 3+N', '2+2N 0+N', '2+2N 2+N', '2+N 3+N', '2+N 5+N',
        '3+2N 2+N', '3+2N 4+N', '3+N 1+N', '3+N 3+N', '4+2N 4+N', '4+2N 6+N', '4+N 3+N', '4+N 5+N'],
    32: ['0 0', '0+N 1+N', '2+2N 0+N', '2+N 0+N', '2+N 1+N', '2+N 2+N', '4+2N 1+N', '4+N 0+N',
        '4+N 1+N', '4+N 2+N', '6+N 1+N', '6+N 2+N'],
    33: ['0 0 0', '1+N 2 1+N', '1+N 2+N 1', '2+N 2+N 1', '2+N 4+N 2+N', '3+N 4+N 2+N',
        '4+N 6+N 3+N'],
    34: ['0 0', '0+N 2+2N', '1+N 0+N', '1+N 2+N', '2+2N 0', '2+N 2+2N', '3+N 0+N', '3+N 2+N'],
    35: ['0 0 0', '0+N 2+N 0'],
    36: ['0 0', '1 1', '1+N 1+N', '1+N 2+N', '2+2N 0', '2+N 2+N', '2+N 3+N', '3 1', '3+N 1+N',
        '3+N 2+N', '3+N 4+N', '4+N 2+N', '4+N 3+N', '5+N 4+N'],
    38: ['0 0', '0 2+2N', '2+N 2+N', '2+N 4+N'],
    40: ['0 0', '1 2+N', '1+N 1', '2 2', '2+2N 0', '2+N 2', '2+N 3+N', '3+2N 2+N', '3+N 1', '4 2',
        '4+2N 4+N', '4+N 2', '4+N 3+N', '4+N 5+N', '5+2N 4+N', '5+N 1', '6+2N 6+N', '6+N 2',
        '6+N 5+N'],
    44: ['0 0', '0 2+N', '0+N 0', '0+N 2+N', '1+N 0', '1+N 0+N', '1+N 2+N', '2+N 0+N', '2+N 2+N'],
    46: ['0 0', '0 2+2N', '0+N 0+N', '0+N 2+N', '2+2N 0', '2+2N 2+2N', '2+N 0+N', '2+N 1+N',
        '2+N 2+N', '2+N 3+N', '4+N 1+N', '4+N 3+N'],
    47: ['0 0 0', '0 0+N 1+N', '1+N 2+N 1', '1+N 2+N 2+N', '2+N 2 1', '2+N 2+N 2+N', '3+N 4+N 3+N'],
}


def test_decided_period_one_unions_keep_equivalent_results():
    rng = random.Random(2026)
    for i in range(50):
        alphabet = ABC if i % 2 else AB
        u = random_union(rng, alphabet, 1)
        if i not in PARENT_CLOSURES:
            continue
        before = DplUnion.of(alphabet, [_parse_term(alphabet, t) for t in PARENT_CLOSURES[i]])
        after = union_iterated_shuffle(u)
        witness = equivalence_witness(minimize(dpl_to_dfa(before)), minimize(dpl_to_dfa(after)))
        assert witness is None, f"case {i}: the closures differ on {witness!r}"
        assert len(after.terms) <= len(before.terms), i


TWELVE_WORDS = "ab ac bc aab abb aac acc bbc bcc abc aabb aacc".split()


def _points(alphabet: Alphabet, words) -> DplUnion:
    return DplUnion.of(alphabet, [DiagonalPeriodic.perm_shuffle(parikh(w, alphabet)) for w in words])


def test_point_terms_fold_to_at_most_one_more_linear_set():
    # a point b merges into c + ⟨P⟩ as c + ⟨P ∪ {b}⟩, so the sets do not double
    rng = random.Random(1207)
    cases = [_points(ABC, TWELVE_WORDS)]
    for _ in range(80):
        words = {
            "".join(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 9))
        }
        cases.append(_points(ABC, sorted(words)))
    for u in cases:
        assert len(aperiodic.fold_linear_sets(u)) <= len(u.terms) + 1, u


# union_iterated_shuffle of PROBE_UNION before points merged in the fold
PROBE_UNION = ("1 2 1", "1 0 1+3N", "1+3N 1+3N 2+2N", "1+4N 0 2+2N")
PARENT_PROBE_CLOSURE = (
    "0 0 0|1 0 1+3N|1 2 1|1+3N 1+3N 2+2N|1+4N 0 2+2N|10+N 2+3N 7+2N|10+N 3+3N 6+2N|2 0 2+3N|"
    "2 2 2+3N|2 4 2|2+3N 1+3N 3+2N|2+3N 1+3N 4+2N|2+3N 2+3N 4+2N|2+3N 3+3N 3+2N|2+4N 0 3+2N|"
    "2+4N 0 4+2N|2+4N 2 3+2N|3 0 3+3N|3 2 3+3N|3 4 3+3N|3 6 3|3+3N 1+3N 4+2N|3+3N 1+3N 5+2N|"
    "3+3N 2+3N 5+2N|3+3N 2+3N 6+2N|3+3N 3+3N 4+2N|3+3N 3+3N 5+2N|3+3N 5+3N 4+2N|3+4N 0 4+2N|"
    "3+4N 0 5+2N|3+4N 2 4+2N|3+4N 2 5+2N|4 0 4+3N|4 2 4+3N|4 6 4+3N|4 8 4|4+3N 1+3N 5+2N|"
    "4+3N 2+3N 6+2N|4+3N 2+3N 7+2N|4+3N 3+3N 5+2N|4+3N 3+3N 6+2N|4+3N 5+3N 5+2N|4+4N 0 5+2N|"
    "4+4N 0 6+2N|4+4N 2 5+2N|4+4N 2 8+2N|5 0 5+3N|5 2 5+3N|5 8 5+3N|5+3N 2+3N 7+2N|"
    "5+3N 3+3N 6+2N|5+4N 0 7+2N|8+N 1+3N 4+2N|9+N 1+3N 5+2N|9+N 2+3N 6+2N|9+N 3+3N 5+2N"
)


def test_point_merge_keeps_a_recognizable_piece_apart():
    # merged unconditionally, the point abbc turns recognizable sets such as
    # 0 + ⟨⟩ into sets that are not, the regular part lacks them, and the walk
    # leaves ac + ⟨abbc, ac, ccc⟩ undecided; kept apart, the closure is decided
    # and equals the one before points merged
    u = DplUnion.of(ABC, [_parse_term(ABC, t) for t in PROBE_UNION])
    after = union_iterated_shuffle(u)
    before = DplUnion.of(ABC, [_parse_term(ABC, t) for t in PARENT_PROBE_CLOSURE.split("|")])
    assert equivalence_witness(minimize(dpl_to_dfa(before)), minimize(dpl_to_dfa(after))) is None
    assert len(after.terms) <= len(before.terms)
    assert_exact(u, after)


def test_unabsorbed_linear_set_is_undecided():
    # no sub-alphabet certificate applies, and the walk finds bad states past
    # a cycle for the linear set aabbb + ⟨aabbb, aabcc⟩ of the last two
    # terms, so the fold names it rather than guess
    terms = ("3 0+3N 0", "2 3 0", "3 0 2+2N", "2 1 2")
    u = DplUnion.of(ABC, [_parse_term(ABC, t) for t in terms])
    with pytest.raises(UndecidedError, match="aabbb \\+ ⟨aabbb, aabcc⟩") as err:
        union_iterated_shuffle(u)
    # the error carries the fold, for exact membership without a second one
    assert err.value.linear_sets == aperiodic.fold_linear_sets(u)


def test_non_regular_verdict_carries_the_fold():
    u = DplUnion.of(AB, [_parse_term(AB, "1 1")])
    with pytest.raises(NonRegularError) as err:
        union_iterated_shuffle(u)
    assert err.value.linear_sets == aperiodic.fold_linear_sets(u)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_contained_term_is_pruned(capsys):
    # the term a:1+N b:1+N c:2+N lies in a*b*c+, so two terms remain: ε and a*b*c+
    expr = "sh*(perm(abc) | perm(c) <> {a,b}*)"
    code, out, _ = run(capsys, "normalize", "--alphabet", "abc", expr)
    assert code == 0
    assert len(json.loads(out)["terms"]) == 2


def test_closure_with_a_period_two_term_is_a_union(capsys):
    code, out, _ = run(capsys, "normalize", "--alphabet", "ab", "sh*(F(a,1,2) | perm(b))")
    assert code == 0
    printed = dpl_union_from_dict(json.loads(out))
    assert_exact(DplUnion.of(AB, [_parse_term(AB, "1+2N 0+N"), _parse_term(AB, "0 1")]), printed)


def test_non_regular_verdict_names_its_witness(capsys):
    code, out, _ = run(capsys, "regular", "--alphabet", "ab", "sh*(perm(aab) | {a}*)")
    assert code == 0
    assert json.loads(out) == {
        "regular": False,
        "witness": "b",
        "subalphabet": ["a", "b"],
        "representation": None,
    }
    code, _, err = run(capsys, "normalize", "--alphabet", "ab", "sh*(perm(aab) | {a}*)")
    assert code == 3
    assert "not regular" in err


def test_linear_set_guard(capsys, monkeypatch):
    monkeypatch.setattr(aperiodic, "CLOSURE_LINEAR_SET_GUARD", 3)
    terms = ("1 0+N", "2 0+N", "1 1")
    u = DplUnion.of(AB, [_parse_term(AB, t) for t in terms])
    with pytest.raises(SizeGuardError) as err:
        union_iterated_shuffle(u)
    assert (err.value.guard, err.value.limit, err.value.observed) == ("closure_linear_sets", 3, 4)
    expr = "sh*(perm(a) <> {b}* | perm(aa) <> {b}* | perm(ab))"
    code, out, err = run(capsys, "normalize", "--alphabet", "ab", expr)
    assert code == 4
    assert out == ""
    assert "closure linear set guard" in err
    assert "4 > 3" in err


def union_text(u: DplUnion) -> str:
    """Expression text for a union over two or more letters: k + pN of the
    letter a as F(a,k mod p,p) & F(a,k) & {a}*, an exact count c as perm(a^c),
    and the empty word as {a}* & {b}*."""
    first, second = u.alphabet.letters[:2]
    terms = []
    for t in u.terms:
        pieces = [
            f"(F({a},{s.offset % s.period},{s.period}) & F({a},{s.offset}) & {{{a}}}*)"
            if isinstance(s, Progression)
            else f"perm({a * s})"
            for a, s in zip(u.alphabet, t.sets)
            if s != 0
        ]
        terms.append("(" + (" <> ".join(pieces) or f"{{{first}}}* & {{{second}}}*") + ")")
    return " | ".join(terms)


def test_projection_of_a_closure_is_exact():
    # project(sh*(X), Γ) is the closure of the projected union; compared, on
    # every vector up to the bound, with the fold of X projected set by set
    # (π(b + ⟨P⟩) = π(b) + ⟨π(P)⟩), and by DFA equivalence with the
    # projection of sh*(X) where that is regular
    rng = random.Random(1919)
    kinds = Counter()
    for i in range(150):
        alphabet = ABC if i % 2 else AB
        u = random_union(rng, alphabet, 3)
        keep = rng.sample(alphabet.letters, rng.randint(1, len(alphabet) - 1))
        sub = alphabet.restrict(keep)
        text = union_text(u)
        written = _as_union(eval_expr(parse(text, alphabet)[0], alphabet))
        assert equivalence_witness(minimize(dpl_to_dfa(written)), minimize(dpl_to_dfa(u))) is None
        value = eval_expr(parse(f"project(sh*({text}), {{{','.join(keep)}}})", alphabet)[0], alphabet)
        assert value.alphabet == sub
        picks = [alphabet.index(a) for a in sub]
        pi = lambda v: tuple(v[j] for j in picks)
        projected = [
            (pi(b), frozenset(pi(p) for p in periods if any(pi(p))))
            for b, periods in aperiodic.fold_linear_sets(u)
        ]
        for counts in count_tuples(len(sub), 8):
            assert _member_counts(value, counts) == aperiodic.in_linear_sets(counts, projected), (
                u, keep, counts
            )
        try:
            projected_form = _as_union(value)
        except (NonRegularError, UndecidedError):
            projected_form = None
        shown = "closure" if projected_form is None else "dpl"
        try:
            closure = union_iterated_shuffle(u)
        except (NonRegularError, UndecidedError):
            kinds["closure", shown] += 1
            continue
        kinds["dpl", shown] += 1
        expected = minimize(dpl_to_dfa(dpl_project(closure, keep)))
        assert equivalence_witness(expected, minimize(dpl_to_dfa(projected_form))) is None, (
            u, keep
        )
    # some closures become regular under projection, and some stay closures
    assert kinds.keys() == {("dpl", "dpl"), ("closure", "dpl"), ("closure", "closure")}


def test_projected_closure_converts_to_the_projected_normal_form():
    # the closure of the projected union converts on its own, to a normal
    # form equivalent to the projection of the child closure's normal form
    rng = random.Random(2003)
    compared = 0
    for _ in range(100):
        u = random_union(rng, ABC, 3)
        try:
            closure = union_iterated_shuffle(u)
        except (NonRegularError, UndecidedError):
            continue
        text = union_text(u)
        for keep in ("ab", "ac", "bc"):
            value = eval_expr(parse(f"project(sh*({text}), {{{','.join(keep)}}})", ABC)[0], ABC)
            expected = minimize(dpl_to_dfa(dpl_project(closure, keep)))
            witness = equivalence_witness(expected, minimize(dpl_to_dfa(_as_union(value))))
            assert witness is None, (u, keep, witness)
            compared += 1
    assert compared >= 90


def test_cli_member_of_a_closure_agrees_with_the_oracle_and_the_normal_form(capsys):
    # member answers every sh* from its fold; over random 2–4 term unions with
    # exact counts (regular, non-regular and undecided closures) and the
    # pinned undecided one, it equals membership in the bounded closure and,
    # where union_iterated_shuffle gives one, in the normal form; and so does
    # member of the closure projected to {a}
    rng = random.Random(2510)
    pinned = ("3 0+3N 0", "2 3 0", "3 0 2+2N", "2 1 2")
    unions = [DplUnion.of(ABC, [_parse_term(ABC, t) for t in pinned])]
    for i in range(34):
        alphabet = ABC if i % 2 else AB
        terms = [
            DiagonalPeriodic(alphabet, tuple(
                Progression(rng.randint(0, 2), rng.randint(1, 3)) if rng.random() < 0.4
                else rng.randint(0, 2)
                for _ in alphabet
            ))
            for _ in range(rng.randint(2, 4))
        ]
        unions.append(DplUnion.of(alphabet, terms))
    A = Alphabet.of("a")
    bound = 10
    verdicts = Counter()
    for u in unions:
        letters = "".join(u.alphabet)
        base = predicate_enumerate(lambda v: dpl_union_member(v, u), u.alphabet, bound)
        closure = {v.counts for v in closure_under_addition(base, bound).vectors}
        on_a = predicate_enumerate(
            lambda v: any(in_count_set(v.counts[0], t.sets[0]) for t in u.terms), A, bound
        )
        closure_a = {v.counts for v in closure_under_addition(on_a, bound).vectors}
        forms = []
        for w in (u, dpl_project(u, "a")):
            try:
                forms.append(union_iterated_shuffle(w))
                verdicts["regular"] += w is u
            except (NonRegularError, UndecidedError) as err:
                forms.append(None)
                verdicts[type(err).__name__] += w is u
        members = sorted(closure)
        words = [
            "".join(rng.choice(letters) for _ in range(rng.randint(0, bound)))
            for _ in range(4)
        ] + [word_of(ParikhVector(u.alphabet, rng.choice(members))) for _ in range(3)]
        words += ["a" * rng.randint(0, bound) for _ in range(2)]
        text = union_text(u)
        for w in words:
            counts = parikh(w, u.alphabet).counts
            expected = counts in closure
            assert run(capsys, "member", "--alphabet", letters, w, f"sh*({text})")[:2] == (
                0, f"{str(expected).lower()}\n"
            ), (u, w)
            if forms[0] is not None:
                assert dpl_union_member(parikh(w, u.alphabet), forms[0]) == expected, (u, w)
            on_a_only = set(w) <= {"a"}
            expected = on_a_only and (len(w),) in closure_a
            projected = f"project(sh*({text}), {{a}})"
            assert run(capsys, "member", "--alphabet", letters, w, projected)[:2] == (
                0, f"{str(expected).lower()}\n"
            ), (u, w)
            if forms[1] is not None and on_a_only:
                assert dpl_union_member(parikh(w, A), forms[1]) == expected, (u, w)
    assert verdicts.keys() == {"regular", "NonRegularError", "UndecidedError"}, verdicts
