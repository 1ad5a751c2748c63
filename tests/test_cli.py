import json
from itertools import product

import pytest

from comshuffle.automata import dfa_from_dict
from comshuffle.cli import main
from comshuffle.dpl import dpl_union_from_dict, dpl_union_member
from comshuffle.words import Alphabet, parikh


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_member_equal_counts(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "abba", "sh*({ab})")
    assert code == 0
    assert out.strip() == "true"


def test_member_unbalanced(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "aab", "sh*({ab})")
    assert code == 0
    assert out.strip() == "false"


def test_member_finite_set_is_literal(capsys):
    code, out, _ = run(capsys, "member", "--alphabet", "ab", "ba", "{ab}")
    assert code == 0
    assert out.strip() == "false"


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
    code, out, _ = run(capsys, "regular", "--alphabet", "ab", "sh*({ab})")
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


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "member", "--alphabet", "ab", "a", "perm(")
    assert code == 2
    assert "syntax error" in err


def test_unknown_letter_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--alphabet", "ab", "abc")
    assert code == 2


def test_fragment_exit_code(capsys):
    # the closure of {ab} is not regular, so no normal form exists
    code, _, err = run(capsys, "normalize", "--alphabet", "ab", "sh*({ab})")
    assert code == 3


def test_guard_exit_code(capsys):
    code, _, err = run(
        capsys, "dfa", "--alphabet", "ab", "--guard-states", "3", "F(a,1,2) & F(b,1,2)"
    )
    assert code == 4
