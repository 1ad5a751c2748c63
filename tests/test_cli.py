import argparse
import json
import os
import random
import subprocess
import sys
import time
from functools import reduce
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from comshuffle import aperiodic, cli
from comshuffle.automata import dfa_from_dict
from comshuffle.cli import main
from comshuffle.dpl import (
    Fcount, Fmod, GammaPlus, GammaStar, dpl_union_from_dict, dpl_union_member, from_generators
)
from comshuffle.errors import SizeGuardError
from comshuffle.exprlang import (
    IntersectE, InvProject, IterShuffle, Perm, Project, SetLit, ShuffleE, UnionE, WordLit, parse
)
from comshuffle.oracle import VectorSet, all_vectors, closure_under_addition, vector_sums
from comshuffle.words import Alphabet, ParikhVector, parikh


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_member_equal_counts(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "abba", "sh*(perm(ab))")
    assert code == 0
    assert out.strip() == "true"


def test_member_unbalanced(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "aab", "sh*(perm(ab))")
    assert code == 0
    assert out.strip() == "false"


def test_member_finite_set_is_literal(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "ba", "{ab}")
    assert code == 0
    assert out.strip() == "false"


def test_member_of_a_long_word_in_a_closure(capsys):
    word = "a" * 1500 + "b" * 1500
    code, out, _ = run(capsys, "member", "--alphabet", "ab", word, "sh*(perm(ab))")
    assert code == 0
    assert out.strip() == "true"


def test_member_of_a_long_unary_word_set(capsys):
    # a one-letter word is its own permutation closure, whatever its length
    word = "a" * 13
    code, out, _ = run(capsys, "member", "--alphabet", "a", word, "{%s} | F(a,1)" % word)
    assert code == 0
    assert out.strip() == "true"


def test_long_word_set_that_is_not_permutation_closed(capsys):
    code, _, err = run(
        capsys, "member", "--alphabet", "ab", "a", "{abababababababab} | F(a,1)"
    )
    assert code == 3
    assert "outside the implemented fragment" in err


@pytest.mark.parametrize(
    "command, expr",
    [
        ("normalize", "F(a,1) <> {ab}"),
        ("normalize", "F(a,1) | {ab}"),
        ("normalize", "invproject({ab})"),
        ("dfa", "{ab}"),
    ],
)
def test_word_set_that_is_not_permutation_closed_needs_no_union(capsys, command, expr):
    # {ab} is exact as a word set, but not as its Parikh image {ab, ba}
    code, out, err = run(capsys, command, "--alphabet", "ab", expr)
    assert (code, out) == (3, "")
    assert "a word set that is not permutation closed is outside the implemented fragment" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["member", "--alphabet", "ab", "ba", "sh*({ab})"],
        ["normalize", "--alphabet", "ab", "sh*({ab}) & {ba}"],
        ["check", "--alphabet", "ab", "--bound", "6", "sh*({ab})"],
        ["member", "--alphabet", "ab", "bb", "sh*({a,ab})"],
    ],
)
def test_iterated_shuffle_of_a_word_set_that_is_not_permutation_closed(capsys, argv):
    # every word of sh*({ab}) starts with a: its Parikh image would hold ba
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "iterated shuffle of a word set that is not permutation closed" in err


@pytest.mark.parametrize(
    "expr, word, found",
    [
        # {ab,a,b} holds the one-letter word of each letter: its closure is {a,b}*
        ("sh*({ab,a,b})", "ba", "true"),
        ("sh*({ab,a,b})", "bba", "true"),
        ("sh*(perm(ab))", "ba", "true"),
        ("sh*(perm(ab))", "aab", "false"),
    ],
)
def test_iterated_shuffle_of_a_commutative_word_set(capsys, expr, word, found):
    assert run(capsys, "member", "--alphabet", "ab", word, expr)[:2] == (0, found + "\n")


CLAUSE_CHAIN = " & ".join(
    f"(F(a,{r},{n}) | F(b,{r},{n}) | F(c,{r},{n}))"
    for r, n in [(0, 2), (1, 3), (0, 5), (1, 2), (2, 3), (1, 5), (0, 7), (3, 7)]
)


@pytest.mark.parametrize(
    "argv, guard",
    [
        # the chain folds to 1296 terms; the guard stops the fold at 108
        (["normalize", "--guard-clauses", "100", "--alphabet", "abc", CLAUSE_CHAIN],
         "clause guard exceeded: 108 > 100"),
        # 90 x 90 pairs, each with up to C(12, 6) = 924 interleavings
        (["member", "--alphabet", "abc", "abcabcabcabc", "perm(aabbcc) <> perm(aabbcc)"],
         "word shuffle words guard exceeded: 7484400 > 50000"),
    ],
)
def test_a_growing_operator_stops_at_its_guard(capsys, argv, guard):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (4, "")
    assert guard in err


def test_normalize_emits_canonical_json(capsys):
    code, out, _ = run(capsys, "normalize", "--alphabet", "ab", "F(a,1,2) & F(b,2)")
    assert code == 0
    data = json.loads(out)
    assert "terms" in data
    # reserialization with sorted keys is byte-identical
    assert out.strip() == json.dumps(data, sort_keys=True)


def test_normalize_prints_pinned_bytes(capsys):
    # a union without exact counts prints no "exact" key
    code, out, _ = run(capsys, "normalize", "--alphabet", "ab", "F(a,1,2) & F(b,2)")
    assert code == 0
    assert out == (
        '{"alphabet": ["a", "b"], "terms": [{"progs": {"a": {"k": 1, "p": 2}, '
        '"b": {"k": 2, "p": 1}}, "support": ["a", "b"]}]}\n'
    )


def test_normalize_round_trip_is_stable(capsys):
    code, first, _ = run(capsys, "normalize", "--alphabet", "ab", "F(b,1) | F(a,2)")
    assert code == 0
    code, second, _ = run(capsys, "normalize", "--alphabet", "ab", "F(b,1) | F(a,2)")
    assert first == second


def test_alphabet_statement_in_expression(capsys):
    code, out, _ = run(capsys, "member", "ab", "alphabet ab; {a,b}+")
    assert code == 0
    assert out.strip() == "true"


def test_regular_verdict_for_balanced_pair(capsys):
    code, out, _ = run(capsys, "regular", "--alphabet", "ab", "sh*(perm(ab))")
    assert code == 0
    data = json.loads(out)
    assert data["regular"] is False
    assert data["witness"] in ("a", "b")
    assert data["representation"] is None


def test_regular_verdict_with_representation(capsys):
    code, out, _ = run(capsys, "regular", "--alphabet", "ab", "sh*({ab,a,b})")
    assert code == 0
    data = json.loads(out)
    assert data["regular"] is True
    assert data["representation"] is not None


def test_dfa_json(capsys):
    code, out, _ = run(capsys, "dfa", "--alphabet", "ab", "--minimize", "F(a,1,2)")
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"alphabet", "states", "start", "finals", "delta"}
    assert data["states"] == 2


def test_dfa_prints_pinned_bytes(capsys):
    # the unminimized count grid, its dead state 3, in BFS numbering
    code, out, _ = run(capsys, "dfa", "--alphabet", "abc", "perm(ab) <> {a}*")
    assert code == 0
    assert out == (
        '{"alphabet": ["a", "b", "c"], "delta": [[0, "a", 1], [0, "b", 2], '
        '[0, "c", 3], [1, "a", 1], [1, "b", 4], [1, "c", 3], [2, "a", 4], '
        '[2, "b", 3], [2, "c", 3], [3, "a", 3], [3, "b", 3], [3, "c", 3], '
        '[4, "a", 4], [4, "b", 3], [4, "c", 3]], "finals": [4], "start": 0, '
        '"states": 5}\n'
    )


@pytest.mark.parametrize("argv, expected", [
    (["dfa", "--minimize"],
     '{"alphabet": ["a", "b"], "delta": [[0, "a", 1], [0, "b", 2], [1, "a", 0], '
     '[1, "b", 3], [2, "a", 3], [2, "b", 4], [3, "a", 2], [3, "b", 4], [4, "a", 4], '
     '[4, "b", 4]], "finals": [1, 3, 4], "start": 0, "states": 5}\n'),
    (["dfa", "--minimize", "--dot"],
     'digraph dfa {\n  rankdir=LR;\n  start [shape=point, label=""];\n'
     '  q0 [shape=circle, label="0"];\n  q1 [shape=doublecircle, label="1"];\n'
     '  q2 [shape=circle, label="2"];\n  q3 [shape=doublecircle, label="3"];\n'
     '  q4 [shape=doublecircle, label="4"];\n  start -> q0;\n'
     '  q0 -> q1 [label="a"];\n  q0 -> q2 [label="b"];\n  q1 -> q0 [label="a"];\n'
     '  q1 -> q3 [label="b"];\n  q2 -> q3 [label="a"];\n  q2 -> q4 [label="b"];\n'
     '  q3 -> q2 [label="a"];\n  q3 -> q4 [label="b"];\n  q4 -> q4 [label="a,b"];\n}\n'),
    (["report"],
     '{"aperiodic": false, "commutative": true, "complete": true, '
     '"permutation": false, "stateCount": 5}\n'),
])
def test_minimal_automaton_prints_pinned_bytes(capsys, argv, expected):
    code, out, _ = run(capsys, *argv, "--alphabet", "ab", "F(a,1,2) | F(b,2)")
    assert code == 0
    assert out == expected


def test_dfa_dot(capsys):
    code, out, _ = run(capsys, "dfa", "--alphabet", "ab", "--dot", "F(a,1)")
    assert code == 0
    assert out.startswith("digraph")


def test_report(capsys):
    code, out, _ = run(capsys, "report", "--alphabet", "ab", "F(a,1,2)")
    assert code == 0
    data = json.loads(out)
    assert data["commutative"] is True
    assert data["permutation"] is True
    assert data["aperiodic"] is False


def test_check_passes_on_fragment_expression(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "ab", "--bound", "8", "sh*(F(a,1,2))")
    assert code == 0
    assert out.startswith("PASS")


@pytest.mark.parametrize("expr", ["(perm(ab) <> {a}*) & F(a,2)", "perm(ab) | F(a,1,2)"])
def test_check_passes_with_exact_counts(capsys, expr):
    code, out, _ = run(capsys, "check", "--alphabet", "abc", "--bound", "8", expr)
    assert code == 0
    assert out.startswith("PASS")


def test_dfa_of_union_closure_agrees_with_normal_form(capsys):
    expr = "sh*(perm(abc) | perm(c) <> {a,b}*)"
    code, out, _ = run(capsys, "normalize", "--alphabet", "abc", expr)
    assert code == 0
    u = dpl_union_from_dict(json.loads(out))
    code, out, _ = run(capsys, "dfa", "--alphabet", "abc", "--minimize", expr)
    assert code == 0
    m = dfa_from_dict(json.loads(out))
    abc = Alphabet.of("abc")
    for n in range(7):
        for letters in product("abc", repeat=n):
            w = "".join(letters)
            assert m.accepts(w) == dpl_union_member(parikh(w, abc), u), w


def test_check_projection(capsys):
    code, out, _ = run(
        capsys, "check", "--alphabet", "ab", "--bound", "7", "project(F(a,2) <> F(b,1), {a})"
    )
    assert code == 0
    assert out.startswith("PASS")


def test_check_projection_of_a_closure_needs_a_wider_child_window(capsys):
    # a^6 is the projection of a^6 b^3, whose sum 9 lies past the bound
    code, out, _ = run(
        capsys, "check", "--alphabet", "ab", "--bound", "6", "project(sh*(perm(aab)), {a})"
    )
    assert code == 0
    assert out.strip() == "PASS (bound 6)"


@pytest.mark.parametrize("expr", [
    "sh*(project(perm(ab) | perm(c), {a,b}))",
    "project(perm(ab), {a,b}) <> project(F(a,1), {a,b})",
])
def test_check_a_shuffle_over_a_projected_alphabet(capsys, expr):
    # the oracle sums vectors over the operands' alphabet {a, b}, not abc
    code, out, _ = run(capsys, "check", "--alphabet", "abc", "--bound", "8", expr)
    assert code == 0
    assert out.strip() == "PASS (bound 8)"


def test_check_refuses_a_negative_bound(capsys):
    code, out, err = run(capsys, "check", "--alphabet", "ab", "--bound", "-1", "F(a,1)")
    assert code == 2
    assert out == ""
    assert "--bound must be non-negative" in err


@pytest.mark.parametrize("argv, flag, value", [
    (("dfa", "--guard-states", "-1"), "--guard-states", -1),
    (("normalize", "--guard-clauses", "-5"), "--guard-clauses", -5),
    (("report", "--guard-states", "-3"), "--guard-states", -3),
    (("member", "--guard-clauses", "-1", "a"), "--guard-clauses", -1),
])
def test_a_negative_guard_is_refused(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv[:3], "--alphabet", "ab", *argv[3:], "F(a,1)")
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {flag} must be non-negative, got {value}"


def test_a_zero_guard_is_accepted_and_fires(capsys):
    code, _, err = run(capsys, "dfa", "--guard-states", "0", "--alphabet", "ab", "F(a,1)")
    assert code == 4
    assert "more than 0 states" in err


def test_check_bound_guard_fires_before_any_enumeration(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the check bound guard")

    monkeypatch.setattr(cli, "oracle_set", refuse)
    monkeypatch.setattr(cli, "count_tuples", refuse)
    code, out, err = run(capsys, "check", "--alphabet", "abc", "--bound", "300", "F(a,1)")
    assert code == 4
    assert out == ""
    assert "check bound guard exceeded: 300 > 60" in err


def test_check_enumeration_guard_answers_quickly(capsys):
    # C(65, 5) = 8,259,888 count vectors over five letters within bound 60
    began = time.perf_counter()
    code, out, err = run(capsys, "check", "--alphabet", "abcde", "--bound", "60", "F(a,1)")
    assert time.perf_counter() - began < 1
    assert code == 4
    assert out == ""
    assert "enumeration size guard exceeded: 8259888 > 250000" in err


def test_check_fails_at_the_least_differing_vector(capsys, monkeypatch):
    # an oracle missing aab, aaa and aaaab: the least by sum, then
    # lexicographically, is aab
    ab = Alphabet.of("ab")
    oracle_set = cli.oracle_set
    missing = {parikh(w, ab).counts for w in ("aaaab", "aaa", "aab")}
    monkeypatch.setattr(cli, "oracle_set", lambda *args: oracle_set(*args) - missing)
    code, out, _ = run(capsys, "check", "--alphabet", "ab", "--bound", "6", "F(a,1)")
    assert code == 5
    assert out.strip() == "FAIL at {'a': 2, 'b': 1} (bound 6)"


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "member", "--alphabet", "ab", "a", "perm(")
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize("expr", ["project(F(a,1),{a})", "project(perm(ab),{a})"])
def test_member_with_a_letter_the_projection_dropped(capsys, expr):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "ab", expr)
    assert code == 0
    assert out.strip() == "false"


@pytest.mark.parametrize("word, expected", [("abab", "true"), ("abcab", "false")])
def test_member_of_a_closure_of_a_projection(capsys, word, expected):
    # the closure of {ab, ε} over {a, b} has no normal form; its alphabet
    # lacks the session letter c
    expr = "sh*(project(perm(ab) | perm(c), {a,b}))"
    code, out, _ = run(capsys, "member", "--alphabet", "abc", word, expr)
    assert code == 0
    assert out.strip() == expected


def test_unknown_letter_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--alphabet", "ab", "abc")
    assert code == 2


def test_fragment_exit_code(capsys):
    # the closure of perm(ab) is not regular, so no normal form exists
    code, _, err = run(capsys, "normalize", "--alphabet", "ab", "sh*(perm(ab))")
    assert code == 3


def test_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "dfa", "--alphabet", "ab", "--guard-states", "3", "F(a,1,2) & F(b,1,2)"
    )
    assert code == 4


def test_check_builds_the_parikh_image_once(capsys, monkeypatch):
    # the Parikh image of {ab,ba,bc,cb,ca,ac} is built once, not once per vector
    calls = []
    build = cli._finite_union
    monkeypatch.setattr(cli, "_finite_union", lambda lang: calls.append(lang) or build(lang))
    code, out, _ = run(
        capsys, "check", "--alphabet", "abc", "--bound", "6", "sh*({ab,ba,bc,cb,ca,ac})"
    )
    assert code == 0
    assert out.startswith("PASS")
    assert len(calls) == 1


def test_check_folds_a_closure_once(capsys, monkeypatch):
    # the fold that finds the closure not regular is the one the value's
    # membership tests read: one fold, not one per vector or per use
    calls = []
    fold = aperiodic.fold_linear_sets
    counted = lambda u: calls.append(u) or fold(u)
    monkeypatch.setattr(aperiodic, "fold_linear_sets", counted)
    code, out, _ = run(
        capsys, "check", "--alphabet", "abc", "--bound", "9", "sh*({ab,ba,bc,cb,aac,aca,caa})"
    )
    assert code == 0
    assert out.startswith("PASS")
    assert len(calls) == 1


def test_two_calls_build_one_parser(capsys, monkeypatch):
    built = []

    class Counted(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("prog") == "comshuffle":
                built.append(self)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Counted))
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "member", "--alphabet", "ab", "aab", "F(a,1)")[:2] == (0, "true\n")
        assert run(capsys, "member", "--alphabet", "ab", "b", "F(a,1)")[:2] == (0, "false\n")
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def _argv_outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exit:
        code = exit.code
    out = capsys.readouterr()
    return code, out.out, out.err


EXPR = "F(a,1,2)"
ARGV_CORPUS = [
    ["normalize", "--alphabet", "ab", EXPR],
    ["member", "--alphabet", "ab", "aab", EXPR],
    ["regular", "--alphabet", "ab", "sh*(perm(ab))"],
    ["regular?", "--alphabet", "ab", "sh*(perm(ab))"],
    ["dfa", "--alphabet", "ab", "--dot", EXPR],
    ["check", "--alphabet", "ab", "--bound", "4", EXPR],
    ["report", "--alphabet", "ab", EXPR],
    ["-h"],
    *([command, "-h"] for command in ("normalize", "member", "regular", "regular?", "dfa",
                                      "check", "report")),
    [],
    ["bogus", "--alphabet", "ab", EXPR],
    ["member", "--alphabet", "ab", EXPR],
    ["member", "--alphabet", "ab", "a", EXPR, "extra"],
    ["normalize", "--alph", "ab", EXPR],
    ["dfa", "--alphabet", "ab", "--min", EXPR],
    ["normalize", "--alphabet=ab", EXPR],
    ["normalize", "--alphabet", "ab", "--", EXPR],
    ["dfa", "--guard-states", "-1", "--alphabet", "ab", EXPR],
    ["check", "--alphabet", "ab", "--bound", "x", EXPR],
]


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=" ".join)
def test_direct_argv_route_matches_the_full_parser(capsys, monkeypatch, argv):
    # main with its own argv route, then main with the top-level parse:
    # the same exit code, output and Namespace
    outcomes = []
    for parse in (cli._parse_argv, lambda argv: cli.build_parser().parse_args(argv)):
        seen = []
        monkeypatch.setattr(cli, "_parse_argv", lambda argv: seen.append(parse(argv)) or seen[0])
        outcomes.append((_argv_outcome(capsys, argv), seen))
    assert outcomes[0] == outcomes[1]
    assert all(args.command == argv[0] for args in outcomes[0][1])


def test_closure_member_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(aperiodic, "CLOSURE_MEMBER_STATE_GUARD", 50)
    word = "a" * 10 + "b" * 21 + "c" * 10
    code, out, err = run(capsys, "member", "--alphabet", "abc", word, "sh*({ab,ba,bc,cb})")
    assert code == 4
    assert out == ""
    assert "closure membership guard" in err


def test_closure_member_of_a_long_word_with_unary_periods(capsys):
    # the fold's set with periods aab and a has a residue class per count on
    # b, each with one offset, not all 2001 · 1001 count vectors
    word = "a" * 2000 + "b" * 1000
    code, out, _ = run(capsys, "member", "--alphabet", "ab", word, "sh*(perm(aab) | {a}*)")
    assert code == 0
    assert out.strip() == "true"


def test_representation_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(aperiodic, "REPRESENTATION_OFFSET_GUARD", 5)
    expr = "sh*({aaaaa,bbbbb,ab,ba,aab,aba,baa,abb,bab,bba})"
    code, out, err = run(capsys, "regular", "--alphabet", "ab", expr)
    assert code == 4
    assert out == ""
    assert "representation guard" in err


def test_closed_pipe_exits_without_traceback():
    # about 110 kB of JSON, more than a pipe buffers, so the write meets the
    # closed pipe while the CLI is still printing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "comshuffle.cli", "dfa", "--alphabet", "ab", "F(a,3000)"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{"alphabet'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


@pytest.mark.parametrize(
    "expr, shown",
    [
        ("project(F(a,1), {b}) | F(a,1)", "of | have different alphabets: {b} and {a,b}"),
        ("project(F(a,1), {b}) & F(a,1)", "of & have different alphabets: {b} and {a,b}"),
        ("F(a,1) <> project(F(a,1), {b})", "of <> have different alphabets: {a,b} and {b}"),
    ],
)
def test_operand_alphabet_mismatch_exit_code(capsys, expr, shown):
    code, out, err = run(capsys, "normalize", "--alphabet", "ab", expr)
    assert code == 3
    assert out == ""
    assert "the operands " + shown in err


@pytest.mark.parametrize(
    "alphabet, word, expected",
    [("abc", "abcabcabcabc", (0, "true\n")), ("abcdef", "aabbccddeeff", (4, ""))],
)
def test_perm_of_a_long_word_answers_quickly(capsys, alphabet, word, expected):
    # 34650 distinct rearrangements are listed without the 12! orderings;
    # 7484400 are more than the perm_set guard allows
    start = time.monotonic()
    code, out, _ = run(capsys, "member", "--alphabet", alphabet, word, f"sh*(perm({word}))")
    assert time.monotonic() - start < 5
    assert (code, out) == expected


def test_member_of_a_closure_proven_not_regular(capsys):
    expr = "sh*(perm(aab) | {a}*)"
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "aab", expr)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "abab", expr)
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "check", "--alphabet", "ab", "--bound", "6", expr)
    assert code == 0
    assert out.startswith("PASS")


def test_member_of_the_closure_of_twelve_words_answers_quickly(capsys):
    words = "ab,ac,bc,aab,abb,aac,acc,bbc,bcc,abc,aabb,aacc"
    expr = "sh*(%s)" % " | ".join(f"perm({w})" for w in words.split(","))
    start = time.monotonic()
    code, out, _ = run(capsys, "member", "--alphabet", "abc", "aabbcc", expr)
    assert time.monotonic() - start < 5
    assert (code, out) == (0, "true\n")


def test_word_set_verdict_names_its_subalphabet(capsys):
    code, out, _ = run(capsys, "regular", "--alphabet", "abc", "sh*({ab,ba,c})")
    assert code == 0
    assert json.loads(out) == {
        "regular": False, "witness": "a", "subalphabet": ["a", "b"], "representation": None
    }


def test_a_closure_is_its_own_iterated_shuffle(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "abab", "sh*(sh*(perm(ab)))")
    assert (code, out) == (0, "true\n")


def test_projection_of_a_closure_is_the_closure_of_the_projection(capsys):
    # sh*(perm(aab)) is not regular, but its projection on {a} is sh*({aa})
    code, out, _ = run(capsys, "normalize", "--alphabet", "ab", "project(sh*(perm(aab)), {a})")
    assert code == 0
    assert json.loads(out) == {
        "alphabet": ["a"], "terms": [{"progs": {"a": {"k": 0, "p": 2}}, "support": ["a"]}]
    }
    # a projection that stays not regular is a closure value
    expr = "project(sh*({ab,ba,c}), {a,b})"
    assert run(capsys, "member", "--alphabet", "abc", "abab", expr)[:2] == (0, "true\n")
    assert run(capsys, "member", "--alphabet", "abc", "aab", expr)[:2] == (0, "false\n")
    code, out, _ = run(capsys, "check", "--alphabet", "abc", "--bound", "6", expr)
    assert (code, out) == (0, "PASS (bound 6)\n")
    code, out, _ = run(capsys, "regular", "--alphabet", "abc", f"sh*({expr})")
    assert json.loads(out)["witness"] == "a"


def test_a_closure_without_a_normal_form_has_no_automaton(capsys):
    code, _, err = run(capsys, "dfa", "--alphabet", "ab", "sh*(perm(ab))")
    assert code == 3
    assert "not regular" in err


# --- a closure computes its normal form only where a command reads terms ---

def _refuse_normal_form(monkeypatch):
    def refuse(closure):
        raise AssertionError("normal form built")

    monkeypatch.setattr(aperiodic, "union_iterated_shuffle", refuse)


@pytest.mark.parametrize(
    "word, expr, found",
    [
        ("abab", "sh*(F(a,1,2) | perm(b))", "true\n"),
        ("b", "sh*(F(a,1,2) | perm(b))", "true\n"),
        ("aab", "sh*(perm(aab) | {a}*)", "true\n"),
        ("ab", "sh*(perm(aab) | {a}*)", "false\n"),
        ("aa", "project(sh*(perm(aab)), {a})", "true\n"),
    ],
)
def test_member_of_a_closure_builds_no_normal_form(capsys, monkeypatch, word, expr, found):
    _refuse_normal_form(monkeypatch)
    assert run(capsys, "member", "--alphabet", "ab", word, expr)[:2] == (0, found)


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "sh*(F(a,1,2))"],
        ["regular", "sh*(F(a,1,2))"],
        ["dfa", "sh*(F(a,1,2))"],
        ["report", "sh*(F(a,1,2))"],
        ["check", "--bound", "4", "sh*(F(a,1,2))"],
        ["member", "ab", "sh*(F(a,1,2)) | F(a,3)"],
        ["member", "ab", "invproject(sh*(F(a,1,2)))"],
    ],
)
def test_every_other_reader_of_a_closure_builds_its_normal_form(monkeypatch, argv):
    _refuse_normal_form(monkeypatch)
    with pytest.raises(AssertionError, match="normal form built"):
        main([argv[0], "--alphabet", "ab", *argv[1:]])


def test_check_compares_a_closure_by_its_normal_form(capsys, monkeypatch):
    # a wrong conversion is caught: Σ* in place of sh*(F(a,1,2)), which lacks b
    sigma_star = from_generators(GammaStar(frozenset("ab")), Alphabet.of("ab"))
    monkeypatch.setattr(aperiodic, "union_iterated_shuffle", lambda closure: sigma_star)
    code, out, _ = run(capsys, "check", "--alphabet", "ab", "--bound", "6", "sh*(F(a,1,2))")
    assert (code, out) == (5, "FAIL at {'a': 0, 'b': 1} (bound 6)\n")


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["member", "--alphabet", "ab", "aab", "sh*(perm(aab) | {a}*)"], "true"),
        (["member", "--alphabet", "ab", "abab", "sh*(F(a,1,2) | perm(b))"], "true"),
        (["normalize", "--alphabet", "ab", "sh*(perm(aab)) & {aab,aba,baa,ab,b}"],
         '{"alphabet": ["a", "b"], "words": ["aab", "aba", "baa"]}'),
    ],
)
def test_a_command_folds_a_closure_once(capsys, monkeypatch, argv, shown):
    calls = []
    fold = aperiodic.fold_linear_sets

    def counted(u):
        calls.append(u)
        return fold(u)

    monkeypatch.setattr(aperiodic, "fold_linear_sets", counted)
    assert run(capsys, *argv)[:2] == (0, shown + "\n")
    assert len(calls) == 1


LONG_ABC = "a" * 500 + "b" * 1001 + "c" * 500


def test_member_of_a_long_word_uses_each_mixed_period_below_its_order(capsys, monkeypatch):
    # modulo aa, bb and cc the least offsets are 0, ab, bc and ab + bc: four,
    # where all sums of ab and bc give about 250,000
    _refuse_normal_form(monkeypatch)
    expr = "sh*(perm(ab) | perm(bc) | aa | bb | cc)"
    code, out, _ = run(capsys, "member", "--alphabet", "abc", LONG_ABC, expr)
    assert (code, out) == (0, "false\n")


# a regular closure whose fold keeps linear sets with non-unary periods on
# c, which has no unary period
KEPT_SETS = (
    "sh*((perm(aaa) <> (F(b,2) & {b}*) <> (F(c,3) & {c}*)) "
    "| (perm(ac) <> (F(b,0,3) & F(b,3) & {b}*)) "
    "| ((F(a,2,3) & F(a,2) & {a}*) <> perm(bbbccc)) "
    "| ((F(a,0,2) & F(a,2) & {a}*) <> perm(bbbcc)))"
)


@pytest.mark.parametrize(
    "word, found",
    [("a" * 19 + "b" * 48 + "c" * 29, "true\n"), ("a" * 499 + "b" * 295 + "c" * 246, "true\n")],
)
def test_member_of_a_long_word_reads_only_the_fold(capsys, monkeypatch, word, found):
    # c has no unary period, so the search has a residue class per count on
    # c, and the counts on a and b only matter modulo their periods
    _refuse_normal_form(monkeypatch)
    assert run(capsys, "member", "--alphabet", "abc", word, KEPT_SETS)[:2] == (0, found)


# a regular closure whose fold keeps linear sets with the period accc but no
# unary period on a
BARE_A = (
    "sh*(perm(accc) <> (F(b,0,3) & {b}*) | perm(aa) <> (F(c,1,3) & {c}*) "
    "| perm(a) <> (F(c,0,3) & {c}*))"
)


@pytest.mark.parametrize("b, found", [(1996, "false\n"), (1995, "true\n")])
def test_member_of_a_long_word_over_a_letter_without_a_unary_period(capsys, monkeypatch, b, found):
    # b occurs only in multiples of 3; the search over the classes of the
    # counts on a answers within the default guard
    _refuse_normal_form(monkeypatch)
    word = "a" * 1704 + "b" * b + "c" * 1742
    assert run(capsys, "member", "--alphabet", "abc", word, BARE_A)[:2] == (0, found)


@pytest.mark.parametrize("c, found", [(2499, "true\n"), (2449, "false\n")])
def test_member_of_a_long_word_over_letters_with_two_unary_periods(capsys, monkeypatch, c, found):
    # the fold is 0 + <a^50, a^51, b^50, b^51, c^50, c^51>: each letter is
    # tested on its own, and 2449 = 50·51 - 50 - 51 is no sum of 50 and 51
    _refuse_normal_form(monkeypatch)
    expr = "sh*(" + " | ".join("{%s}" % (x * n) for x in "abc" for n in (50, 51)) + ")"
    word = "a" * 2499 + "b" * 2499 + "c" * c
    assert run(capsys, "member", "--alphabet", "abc", word, expr)[:2] == (0, found)


def test_membership_in_a_fold_agrees_with_the_normal_form_on_long_words():
    alphabet = Alphabet.of("abc")
    closure = cli.eval_expr(parse(BARE_A, alphabet)[0], alphabet)
    rng = random.Random(28)
    answers = set()
    for _ in range(8):
        counts = tuple(rng.randint(1500, 2000) for _ in range(3))
        found = aperiodic.union_closure_member(counts, closure)
        assert found == dpl_union_member(ParikhVector(alphabet, counts), closure.normal_form)
        answers.add(found)
    assert answers == {True, False}


def test_projection_of_a_closure_is_the_closure_of_the_projected_union(capsys):
    # projection is a monoid morphism: the projection of sh*(ab | aa | bb) to
    # {a} is sh*(a | aa | ε) = a*, one term, not the two terms 2N and 1+2N
    # that projecting the closure's normal form term by term gives
    code, out, _ = run(
        capsys, "normalize", "--alphabet", "ab", "project(sh*(perm(ab) | aa | bb), {a})"
    )
    assert (code, json.loads(out)["terms"]) == (0, [
        {"progs": {"a": {"k": 0, "p": 1}}, "support": ["a"]},
    ])


def reference_oracle_set(e, alphabet, bound):
    """The oracle on `ParikhVector`s that `cli.oracle_set` replaced, kept as
    a reference."""
    if isinstance(e, (WordLit, Perm)):
        v = parikh(e.word, alphabet)
        return frozenset([v] if v.total() <= bound else [])
    if isinstance(e, SetLit):
        return frozenset(v for w in e.words if (v := parikh(w, alphabet)).total() <= bound)
    if isinstance(e, Fcount):
        return frozenset(v for v in all_vectors(alphabet, bound) if v[e.letter] >= e.threshold)
    if isinstance(e, Fmod):
        return frozenset(
            v for v in all_vectors(alphabet, bound) if v[e.letter] % e.modulus == e.residue
        )
    if isinstance(e, GammaStar):
        return frozenset(v for v in all_vectors(alphabet, bound) if v.support() <= e.letters)
    if isinstance(e, GammaPlus):
        return frozenset(
            v for v in all_vectors(alphabet, bound) if v.support() <= e.letters and v.total() >= 1
        )
    if isinstance(e, UnionE):
        return frozenset().union(*(reference_oracle_set(p, alphabet, bound) for p in e.parts))
    if isinstance(e, IntersectE):
        sets = [reference_oracle_set(p, alphabet, bound) for p in e.parts]
        return frozenset(reduce(lambda x, y: x & y, sets))
    if isinstance(e, ShuffleE):
        target = cli.expr_alphabet(e, alphabet)
        sets = [VectorSet(target, reference_oracle_set(p, alphabet, bound), bound)
                for p in e.parts]
        return reduce(lambda x, y: vector_sums(x, y, bound), sets).vectors
    if isinstance(e, IterShuffle):
        target = cli.expr_alphabet(e, alphabet)
        base = VectorSet(target, reference_oracle_set(e.child, alphabet, bound), bound)
        return closure_under_addition(base, bound).vectors
    if isinstance(e, Project):
        inner = reference_oracle_set(e.child, alphabet, bound + cli.PROJECT_ORACLE_SLACK)
        return frozenset(r for v in inner if (r := v.restrict(e.letters)).total() <= bound)
    if isinstance(e, InvProject):
        inner_alpha = cli.expr_alphabet(e.child, alphabet)
        inner = reference_oracle_set(e.child, alphabet, bound)
        return frozenset(
            v for v in all_vectors(alphabet, bound) if v.restrict(inner_alpha.letters) in inner
        )
    raise TypeError(f"unknown expression node: {e!r}")


def _random_leaf(rng, session):
    letters = session.letters
    word = "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
    pick = rng.randrange(7)
    if pick == 0:
        return WordLit(word)
    if pick == 1:
        return Perm(word)
    if pick == 2:
        other = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        return SetLit(tuple(sorted({word, other})))
    if pick == 3:
        return Fcount(rng.choice(letters), rng.randint(0, 3))
    if pick == 4:
        modulus = rng.randint(2, 3)
        return Fmod(rng.choice(letters), rng.randrange(modulus), modulus)
    subset = frozenset(rng.sample(letters, rng.randint(1, len(letters))))
    return GammaStar(subset) if pick == 5 else GammaPlus(subset)


def random_oracle_expr(rng, session, target, depth):
    """A random expression whose alphabet (`cli.expr_alphabet`) is `target`,
    nested at most `depth` deep below the leaves' parents."""
    kinds = ["|", "&", "<>", "sh*", "project"] if depth else []
    if target == session:
        kinds += ["leaf"] * 3 + (["invproject"] * 2 if depth else [])
    kind = rng.choice(kinds or ["project"])
    sub = max(depth - 1, 0)
    if kind == "leaf":
        return _random_leaf(rng, session)
    if kind in ("|", "&", "<>"):
        node = {"|": UnionE, "&": IntersectE, "<>": ShuffleE}[kind]
        return node(tuple(random_oracle_expr(rng, session, target, sub) for _ in range(2)))
    if kind == "sh*":
        return IterShuffle(random_oracle_expr(rng, session, target, sub))
    if kind == "invproject":
        inner = session.restrict(rng.sample(session.letters, rng.randint(1, len(session))))
        return InvProject(random_oracle_expr(rng, session, inner, sub))
    # a projection of a child over more letters, sometimes naming one it lacks
    wider = session if not depth else session.restrict(
        set(target) | set(rng.sample(session.letters, rng.randint(0, len(session)))))
    letters = set(target) | ({rng.choice(session.letters)} - set(wider))
    return Project(random_oracle_expr(rng, session, wider, sub), frozenset(letters))


def test_oracle_agrees_with_its_reference_on_seeded_expressions():
    rng = random.Random(32)
    for _ in range(300):
        session = Alphabet.of(rng.choice(["ab", "abc"]))
        target = session if rng.random() < 0.5 else session.restrict(
            rng.sample(session.letters, rng.randint(1, len(session) - 1)))
        e = random_oracle_expr(rng, session, target, rng.randint(0, 2))
        bound = rng.randint(0, 6)
        expected = {v.counts for v in reference_oracle_set(e, session, bound)}
        assert cli.oracle_set(e, session, bound) == expected, e
