import random

import pytest

from comshuffle.cli import main
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
    _tokenize,
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


def test_a_digit_that_is_not_decimal_is_a_syntax_error(capsys):
    # '²' passes str.isdigit but not int(): it is refused where it stands
    with pytest.raises(ParseError) as err:
        parse("F(a,²)", AB)
    assert str(err.value) == "unexpected character '²' (at position 4)"
    assert main(["normalize", "--alphabet", "ab", "F(a,²)"]) == 2
    assert capsys.readouterr().err == "syntax error: unexpected character '²' (at position 4)\n"


def reference_tokenize(text):
    """The character loop the regex tokenizer replaced, kept as a reference."""
    punct = {"(", ")", "{", "}", ",", ";", "|", "&", "*", "+"}
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<>", i):
            out.append(("SHUFFLE", "<>", i))
            i += 2
            continue
        if c in punct:
            out.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return out


def _outcome(tokenize, text):
    """The tokens, less the end sentinel, or the error's message and position."""
    try:
        tokens = tokenize(text)
    except ParseError as err:
        return str(err), err.pos
    if tokenize is _tokenize:
        assert tokens.pop() == ("END", "", len(text))
    return tokens


def assert_tokenizes_as_the_reference(text):
    """Identical tokens or an identical error.  The one exception is a digit
    that is not decimal: it is refused at its position, unless the reference
    fails before it."""
    bad = next((i for i, c in enumerate(text) if c.isdigit() and not c.isdecimal()), None)
    if bad is None:
        assert _outcome(_tokenize, text) == _outcome(reference_tokenize, text), text
        return
    expected = _outcome(reference_tokenize, text[:bad])
    if isinstance(expected, list):
        expected = (f"unexpected character {text[bad]!r} (at position {bad})", bad)
    assert _outcome(_tokenize, text) == expected, text


@pytest.mark.parametrize("context", ["F(a,{})", "{{{}}}", "a{}b"])
def test_tokens_agree_with_the_reference_on_every_bmp_code_point(context):
    for code in range(0x10000):
        assert_tokenizes_as_the_reference(context.format(chr(code)))


def test_tokens_agree_with_the_reference_on_seeded_strings():
    rng = random.Random(32)
    pieces = list("abcxyzF") + ["perm", "sh", "alphabet", "é", "ß"] + list("0123456789") + [
        "٣", "²", "½", "(", ")", "{", "}", ",", ";", "|", "&", "*", "+", "<>", "<", ">",
        "$", "_", "-", " ", "\t", "\n", "\xa0", "\x1c", "\u3000",
    ]
    for _ in range(5000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))
        assert_tokenizes_as_the_reference(text)
