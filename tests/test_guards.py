"""Every size guard names itself, its limit and the size that crossed it."""

import pytest

from comshuffle import cli, oracle, regularity, words
from comshuffle.dpl import DplUnion, Fcount, GenUnion, from_generators
from comshuffle.errors import SizeGuardError
from comshuffle.exprlang import parse
from comshuffle.oracle import VectorSet
from comshuffle.regularity import FiniteLang
from comshuffle.words import Alphabet

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")
PERMS = FiniteLang.of(ABC, words.perm_set("aabbcc"))

CASES = [
    (
        "clauses",
        lambda: from_generators(GenUnion((Fcount("a", 1), Fcount("b", 1))), AB, clause_guard=1),
        1,
        2,
    ),
    ("word_shuffle_length", lambda: cli._shuffle_pair_words("a" * 7, "b" * 6), 12, 13),
    (
        "closure_bound",
        lambda: oracle.closure_under_addition(VectorSet(AB, frozenset(), 61), 61),
        60,
        61,
    ),
    ("enumeration_bound", lambda: oracle.dpl_enumerate(DplUnion.sigma_star(AB), 61), 60, 61),
    ("enumeration_bound", lambda: oracle.predicate_enumerate(lambda v: True, AB, 61), 60, 61),
    ("word_bound", lambda: oracle.word_language(lambda v: True, AB, 11), 10, 11),
    ("nerode_bound", lambda: regularity.nerode_evidence(lambda w: True, AB, 13), 12, 13),
    ("perm_length", lambda: words.perm_set("a" * 13), 12, 13),
    ("perm_words", lambda: words.perm_set("aabbccddeeff"), 50_000, 7_484_400),
    (
        "check_bound",
        lambda: cli.cmd_check(
            cli.build_parser().parse_args(["check", "--alphabet", "abc", "--bound", "300", "F(a,1)"])
        ),
        60,
        300,
    ),
    ("enumeration_vectors", lambda: oracle.count_tuples(5, 60), 250_000, 8_259_888),
    # the clause guard also bounds each step of a binary operator's fold
    (
        "clauses",
        lambda: cli.eval_expr(parse("(F(a,1) | F(b,1)) & (F(a,2) | F(b,2))", AB)[0], AB, 3),
        3,
        4,
    ),
    # 90 x 90 pairs of words, each with C(12, 6) = 924 interleavings
    ("word_shuffle_words", lambda: cli._finite_shuffle(PERMS, PERMS), 50_000, 7_484_400),
]


@pytest.mark.parametrize(
    "guard, call, limit, observed", CASES, ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)]
)
def test_guard_sets_its_attributes(guard, call, limit, observed):
    with pytest.raises(SizeGuardError) as err:
        call()
    assert (err.value.guard, err.value.limit, err.value.observed) == (guard, limit, observed)
