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
the shuffle product.  Every letter is checked against the alphabet as it is
read, and an unknown one is reported at its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union as TUnion

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

_KEYWORDS = {"perm", "sh", "project", "invproject", "alphabet", "F"}
_PUNCT = {"(", ")", "{", "}", ",", ";", "|", "&", "*", "+"}


class _Token(NamedTuple):
    kind: str  # IDENT, INT, SHUFFLE, or a punctuation character
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<>", i):
            out.append(_Token("SHUFFLE", "<>", i))
            i += 2
            continue
        if c in _PUNCT:
            out.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length
        self.alphabet: Optional[Alphabet] = None

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t is None or t.kind != kind:
            where = t.pos if t else self.length
            got = repr(t.value) if t else "end of input"
            raise ParseError(f"expected {kind!r}, got {got}", where)
        self.i += 1
        return t

    def word(self) -> _Token:
        """The next identifier, whose letters must lie in the alphabet."""
        t = self.expect("IDENT")
        for k, a in enumerate(t.value):
            if a not in self.alphabet:
                raise ParseError(f"unknown letter {a!r}", t.pos + k)
        return t

    def expr(self) -> Expr:
        parts = [self.shuffled()]
        while (t := self.peek()) and t.kind == "|":
            self.next()
            parts.append(self.shuffled())
        return parts[0] if len(parts) == 1 else UnionE(tuple(parts))

    def shuffled(self) -> Expr:
        parts = [self.meet()]
        while (t := self.peek()) and t.kind == "SHUFFLE":
            self.next()
            parts.append(self.meet())
        return parts[0] if len(parts) == 1 else ShuffleE(tuple(parts))

    def meet(self) -> Expr:
        parts = [self.atom()]
        while (t := self.peek()) and t.kind == "&":
            self.next()
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else IntersectE(tuple(parts))

    def braces(self) -> tuple[tuple[str, ...], int]:
        open_tok = self.expect("{")
        words = []
        if (t := self.peek()) and t.kind != "}":
            while True:
                words.append(self.word().value)
                if (t := self.peek()) and t.kind == ",":
                    self.next()
                else:
                    break
        self.expect("}")
        return tuple(words), open_tok.pos

    def _letterset(self, words: tuple[str, ...], pos: int) -> frozenset[str]:
        for w in words:
            if len(w) != 1:
                raise ParseError(
                    f"letter set entries must be single letters, got {w!r}", pos
                )
        return frozenset(words)

    def atom(self) -> Expr:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.length)
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "{":
            words, pos = self.braces()
            nxt = self.peek()
            if nxt and nxt.kind == "*":
                self.next()
                return GammaStar(self._letterset(words, pos))
            if nxt and nxt.kind == "+":
                self.next()
                return GammaPlus(self._letterset(words, pos))
            return SetLit(words)
        if t.kind == "IDENT":
            name = t.value
            if name == "perm":
                self.next()
                self.expect("(")
                w = self.word().value
                self.expect(")")
                return Perm(w)
            if name == "sh":
                self.next()
                self.expect("*")
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return IterShuffle(e)
            if name == "project":
                self.next()
                self.expect("(")
                e = self.expr()
                self.expect(",")
                words, pos = self.braces()
                self.expect(")")
                return Project(e, self._letterset(words, pos))
            if name == "invproject":
                self.next()
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return InvProject(e)
            if name == "F":
                self.next()
                self.expect("(")
                letter_tok = self.word()
                if len(letter_tok.value) != 1:
                    raise ParseError("F expects a single letter", letter_tok.pos)
                self.expect(",")
                first = int(self.expect("INT").value)
                if (nxt := self.peek()) and nxt.kind == ",":
                    self.next()
                    second_tok = self.expect("INT")
                    second = int(second_tok.value)
                    self.expect(")")
                    if first >= second:
                        raise ParseError("residue must be < modulus", second_tok.pos)
                    return Fmod(letter_tok.value, first, second)
                self.expect(")")
                return Fcount(letter_tok.value, first)
            if name == "alphabet":
                raise ParseError(
                    "alphabet declaration must come first, as 'alphabet <letters>;'",
                    t.pos,
                )
            return WordLit(self.word().value)
        raise ParseError(f"unexpected token {t.value!r}", t.pos)


def parse(text: str, alphabet: Optional[Alphabet] = None) -> tuple[Expr, Alphabet]:
    """Parse a session: optional alphabet declaration, then one expression.

    The alphabet may come from the declaration or the `alphabet` argument; the
    in-text declaration wins when both are present.
    """
    tokens = _tokenize(text)
    p = _Parser(tokens, len(text))
    t = p.peek()
    if t and t.kind == "IDENT" and t.value == "alphabet":
        p.next()
        letters_tok = p.expect("IDENT")
        p.expect(";")
        alphabet = Alphabet.of(letters_tok.value)
    if alphabet is None:
        raise ParseError("no alphabet declared; use --alphabet or 'alphabet <letters>;'")
    p.alphabet = alphabet
    e = p.expr()
    if (t := p.peek()) is not None:
        raise ParseError(f"trailing input {t.value!r}", t.pos)
    return e, alphabet
