import pytest

from comshuffle.dpl import Fcount, Fmod, GammaStar
from comshuffle.errors import ParseError
from comshuffle.exprlang import (
    InvProject,
    IterShuffle,
    Perm,
    Project,
    SetLit,
    ShuffleE,
    UnionE,
    WordLit,
    parse,
)
from comshuffle.words import Alphabet

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def test_word_literal():
    e, alphabet = parse("ab", AB)
    assert e == WordLit("ab")
    assert alphabet == AB


def test_alphabet_declaration_wins():
    e, alphabet = parse("alphabet abc; ab", AB)
    assert alphabet == ABC


def test_missing_alphabet():
    with pytest.raises(ParseError):
        parse("ab")


def test_set_literal_and_star_plus():
    e, _ = parse("{ab, a}", AB)
    assert e == SetLit(("ab", "a"))
    e, _ = parse("{a,b}*", AB)
    assert e == GammaStar(frozenset("ab"))


def test_star_requires_single_letters():
    with pytest.raises(ParseError):
        parse("{ab}*", AB)


def test_perm_and_sh_star():
    e, _ = parse("sh*( perm(ab) )", AB)
    assert e == IterShuffle(Perm("ab"))


def test_f_threshold_and_mod():
    e, _ = parse("F(a,2)", AB)
    assert e == Fcount("a", 2)
    e, _ = parse("F(a,1,3)", AB)
    assert e == Fmod("a", 1, 3)


def test_f_residue_must_be_reduced():
    with pytest.raises(ParseError):
        parse("F(a,3,2)", AB)


def test_precedence_meet_over_shuffle_over_union():
    e, _ = parse("a | b <> a & b", AB)
    assert isinstance(e, UnionE)
    right = e.parts[1]
    assert isinstance(right, ShuffleE)
    assert isinstance(right.parts[1], type(parse("a & b", AB)[0]))


def test_parentheses_override_precedence():
    e, _ = parse("(a | b) <> a", AB)
    assert isinstance(e, ShuffleE)
    assert isinstance(e.parts[0], UnionE)


def test_project_and_invproject():
    e, _ = parse("project(F(a,1) <> b, {a})", AB)
    assert isinstance(e, Project)
    assert e.letters == frozenset("a")
    e, _ = parse("invproject(F(a,1))", AB)
    assert isinstance(e, InvProject)


def test_unknown_letter_rejected():
    with pytest.raises(ParseError):
        parse("abc", AB)


@pytest.mark.parametrize("text, pos", [
    ("abc", 2), ("perm(acb)", 6), ("{a, c}*", 4), ("F(c,1)", 2),
    ("project(a, {b,c})", 14), ("alphabet ab; a | ca", 17),
])
def test_unknown_letter_rejected_at_its_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text, AB)
    assert err.value.pos == pos
    assert str(err.value) == f"unknown letter 'c' (at position {pos})"


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("a ) b", AB)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("a $ b", AB)
    assert err.value.pos == 2


def test_misplaced_alphabet_keyword():
    with pytest.raises(ParseError):
        parse("a | alphabet ab; b", AB)
