"""Expression language for the command line front end.

Grammar, with precedence & (intersection) over <> (shuffle) over | (union):

    session   := ("alphabet" LETTERS ";")? expr
    expr      := shuffled ('|' shuffled)*
    shuffled  := meet ('<>' meet)*
    meet      := atom ('&' atom)*
    atom      := 'perm' '(' WORD ')'
               | 'sh' '*' '(' expr ')'
               | 'project' '(' expr ',' braces ')'
               | 'invproject' '(' expr ')'
               | 'F' '(' LETTER ',' INT [',' INT] ')'
               | braces ['*' | '+']
               | WORD
               | '(' expr ')'
    braces    := '{' [WORD (',' WORD)*] '}'

A brace group followed by '*' or '+' must list single letters and denotes Γ*
or Γ+; otherwise it is a finite set of words.  '<>' is the ASCII stand-in for
the shuffle product.  An INT is a run of decimal digits, and a WORD a run of
letters (`str.isalpha`).  Every letter is checked against the alphabet as it
is read, and an unknown one is reported at its position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union as TUnion

from .dpl import Fcount, Fmod, GammaPlus, GammaStar
from .errors import ParseError
from .words import Alphabet


@dataclass(frozen=True)
class WordLit:
    word: str


@dataclass(frozen=True)
class SetLit:
    words: tuple[str, ...]


@dataclass(frozen=True)
class Perm:
    word: str


@dataclass(frozen=True)
class UnionE:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class IntersectE:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class ShuffleE:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class IterShuffle:
    child: "Expr"


@dataclass(frozen=True)
class Project:
    child: "Expr"
    letters: frozenset[str]


@dataclass(frozen=True)
class InvProject:
    child: "Expr"


Expr = TUnion[
    WordLit, SetLit, Perm, Fcount, Fmod, GammaStar, GammaPlus,
    UnionE, IntersectE, ShuffleE, IterShuffle, Project, InvProject,
]

# A token is a (kind, value, pos) tuple; kind is IDENT, INT, SHUFFLE, a
# punctuation character, or _END for the sentinel closing every token list.
Token = tuple[str, str, int]
_END = "END"

# \s is exactly str.isspace and \d exactly str.isdecimal.  [^\W\d_] holds
# every letter (str.isalpha) but also the digits and numerals that are not
# decimal, such as '²' and '½': `_tokenize` refuses those.
_TOKEN = re.compile(
    r"\s*(?:(?P<SHUFFLE><>)|(?P<PUNCT>[(){},;|&*+])|(?P<INT>\d+)|(?P<IDENT>[^\W\d_]+)"
    r"|(?P<BAD>\S))"
)


def _tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then the end sentinel at position len(text).
    An INT is a run of decimal digits and an IDENT a run of letters; any
    other character outside whitespace, '<>' and the punctuation is refused
    at its position."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        pos = m.start(kind)
        if kind == "PUNCT":
            kind = value
        elif kind == "IDENT" and not value.isalpha():
            pos += next(k for k, c in enumerate(value) if not c.isalpha())
            kind = "BAD"
        if kind == "BAD":
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((kind, value, pos))
    tokens.append((_END, "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.alphabet: Optional[Alphabet] = None

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.i][0]

    def expect(self, kind: str) -> Token:
        t = self.tokens[self.i]
        if t[0] != kind:
            got = "end of input" if t[0] == _END else repr(t[1])
            raise ParseError(f"expected {kind!r}, got {got}", t[2])
        self.i += 1
        return t

    def word(self) -> str:
        """The next identifier, whose letters must lie in the alphabet."""
        _, value, pos = self.expect("IDENT")
        for k, a in enumerate(value):
            if a not in self.alphabet:
                raise ParseError(f"unknown letter {a!r}", pos + k)
        return value

    def expr(self) -> Expr:
        parts = [self.shuffled()]
        while self.peek() == "|":
            self.i += 1
            parts.append(self.shuffled())
        return parts[0] if len(parts) == 1 else UnionE(tuple(parts))

    def shuffled(self) -> Expr:
        parts = [self.meet()]
        while self.peek() == "SHUFFLE":
            self.i += 1
            parts.append(self.meet())
        return parts[0] if len(parts) == 1 else ShuffleE(tuple(parts))

    def meet(self) -> Expr:
        parts = [self.atom()]
        while self.peek() == "&":
            self.i += 1
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else IntersectE(tuple(parts))

    def braces(self) -> tuple[tuple[str, ...], int]:
        pos = self.expect("{")[2]
        words = []
        if self.peek() not in ("}", _END):
            words.append(self.word())
            while self.peek() == ",":
                self.i += 1
                words.append(self.word())
        self.expect("}")
        return tuple(words), pos

    def _letterset(self, words: tuple[str, ...], pos: int) -> frozenset[str]:
        for w in words:
            if len(w) != 1:
                raise ParseError(
                    f"letter set entries must be single letters, got {w!r}", pos
                )
        return frozenset(words)

    def parens(self) -> Expr:
        """An expression in parentheses."""
        self.expect("(")
        e = self.expr()
        self.expect(")")
        return e

    def atom(self) -> Expr:
        kind, name, pos = self.tokens[self.i]
        if kind == "(":
            return self.parens()
        if kind == "{":
            words, pos = self.braces()
            nxt = self.peek()
            if nxt == "*":
                self.i += 1
                return GammaStar(self._letterset(words, pos))
            if nxt == "+":
                self.i += 1
                return GammaPlus(self._letterset(words, pos))
            return SetLit(words)
        if kind == "IDENT":
            if name == "perm":
                self.i += 1
                self.expect("(")
                w = self.word()
                self.expect(")")
                return Perm(w)
            if name == "sh":
                self.i += 1
                self.expect("*")
                return IterShuffle(self.parens())
            if name == "project":
                self.i += 1
                self.expect("(")
                e = self.expr()
                self.expect(",")
                words, pos = self.braces()
                self.expect(")")
                return Project(e, self._letterset(words, pos))
            if name == "invproject":
                self.i += 1
                return InvProject(self.parens())
            if name == "F":
                self.i += 1
                self.expect("(")
                letter_pos = self.tokens[self.i][2]
                letter = self.word()
                if len(letter) != 1:
                    raise ParseError("F expects a single letter", letter_pos)
                self.expect(",")
                first = int(self.expect("INT")[1])
                if self.peek() == ",":
                    self.i += 1
                    _, second, second_pos = self.expect("INT")
                    self.expect(")")
                    if first >= (second := int(second)):
                        raise ParseError("residue must be < modulus", second_pos)
                    return Fmod(letter, first, second)
                self.expect(")")
                return Fcount(letter, first)
            if name == "alphabet":
                raise ParseError(
                    "alphabet declaration must come first, as 'alphabet <letters>;'", pos
                )
            return WordLit(self.word())
        if kind == _END:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {name!r}", pos)


def parse(text: str, alphabet: Optional[Alphabet] = None) -> tuple[Expr, Alphabet]:
    """Parse a session: optional alphabet declaration, then one expression.

    The alphabet may come from the declaration or the `alphabet` argument; the
    in-text declaration wins when both are present.
    """
    p = _Parser(_tokenize(text))
    if p.tokens[0][:2] == ("IDENT", "alphabet"):
        p.i += 1
        letters = p.expect("IDENT")[1]
        p.expect(";")
        alphabet = Alphabet.of(letters)
    if alphabet is None:
        raise ParseError("no alphabet declared; use --alphabet or 'alphabet <letters>;'")
    p.alphabet = alphabet
    e = p.expr()
    kind, value, pos = p.tokens[p.i]
    if kind != _END:
        raise ParseError(f"trailing input {value!r}", pos)
    return e, alphabet
