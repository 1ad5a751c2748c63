"""Alphabets, words, Parikh vectors and the commutative-closure primitives.

Everything downstream treats a word only through its letter-count vector;
this module is the single place where actual words are handled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import SizeGuardError

PERM_SET_MAX_LEN = 12
# Distinct rearrangements `perm_set` may list; abcabcabcabc has 34650.
PERM_SET_MAX_WORDS = 50_000


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of distinct single-character letters.

    The declared order is canonical: it fixes the coordinate order of every
    Parikh vector over this alphabet.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        if not all(isinstance(a, str) and len(a) == 1 for a in self.letters):
            raise ValueError("letters must be single characters")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("letters must be distinct")

    @classmethod
    def of(cls, letters: Iterable[str]) -> "Alphabet":
        return cls(tuple(letters))

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __contains__(self, a: str) -> bool:
        return a in self.letters

    def index(self, a: str) -> int:
        return self.letters.index(a)

    def restrict(self, keep: Iterable[str]) -> "Alphabet":
        """Sub-alphabet in canonical (original) order."""
        keep = set(keep)
        return Alphabet(tuple(a for a in self.letters if a in keep))


@dataclass(frozen=True)
class ParikhVector:
    """Total letter-count vector over an alphabet; coordinates in alphabet order."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.alphabet):
            raise ValueError("counts must cover the whole alphabet")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "ParikhVector":
        return cls(alphabet, (0,) * len(alphabet))

    def __getitem__(self, a: str) -> int:
        return self.counts[self.alphabet.index(a)]

    def __add__(self, other: "ParikhVector") -> "ParikhVector":
        if other.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return ParikhVector(self.alphabet, tuple(x + y for x, y in zip(self.counts, other.counts)))

    def total(self) -> int:
        return sum(self.counts)

    def support(self) -> frozenset[str]:
        return frozenset(a for a, c in zip(self.alphabet, self.counts) if c > 0)

    def restrict(self, letters: Iterable[str]) -> "ParikhVector":
        """Vector over the sub-alphabet given by `letters` (canonical order)."""
        sub = self.alphabet.restrict(letters)
        return ParikhVector(sub, tuple(self[a] for a in sub))

    def lift(self, alphabet: Alphabet) -> "ParikhVector":
        """Vector over a super-alphabet, zero on the new letters."""
        return ParikhVector(alphabet, tuple(self[a] if a in self.alphabet else 0 for a in alphabet))

    def as_dict(self) -> dict[str, int]:
        return {a: c for a, c in zip(self.alphabet, self.counts)}


def check_word(w: str, alphabet: Alphabet) -> None:
    bad = set(w) - set(alphabet.letters)
    if bad:
        raise ValueError(f"word contains letters {sorted(bad)} outside the alphabet")


def parikh(w: str, alphabet: Alphabet) -> ParikhVector:
    """Letter-count vector of `w`."""
    check_word(w, alphabet)
    return ParikhVector(alphabet, tuple(w.count(a) for a in alphabet))


def word_of(v: ParikhVector) -> str:
    """Canonical word with Parikh vector `v` (letters in alphabet order)."""
    return "".join(a * v[a] for a in v.alphabet)


def arrangements(w: str) -> int:
    """The number of distinct words with the letters of w."""
    return math.factorial(len(w)) // math.prod(math.factorial(n) for n in Counter(w).values())


def perm_set(w: str) -> tuple[str, ...]:
    """All distinct rearrangements of `w`, in lexicographic order: each
    prefix grows by each letter it has not used up, so no word repeats.

    Guarded on the length of `w` and on the number of rearrangements.
    """
    if len(w) > PERM_SET_MAX_LEN:
        raise SizeGuardError.over("perm_set length", "perm_length", PERM_SET_MAX_LEN, len(w))
    if (n := arrangements(w)) > PERM_SET_MAX_WORDS:
        raise SizeGuardError.over("perm_set words", "perm_words", PERM_SET_MAX_WORDS, n)
    letters = sorted(set(w))
    words = [""]
    for _ in w:
        words = [p + a for p in words for a in letters if p.count(a) < w.count(a)]
    return tuple(words)


def project_word(w: str, keep: Iterable[str]) -> str:
    """Delete the letters outside `keep`, preserving order."""
    keep = set(keep)
    return "".join(a for a in w if a in keep)


def word_order_key(w: str):
    """Length-then-lexicographic canonical ordering."""
    return (len(w), w)
