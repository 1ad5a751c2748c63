"""Regularity of the iterated shuffle of finite commutative languages.

The criterion: the shuffle closure of perm(L) is regular exactly when every
letter occurring somewhere in L also occurs as a unary word of L.  When it
holds, the closure has an explicit representation as a finite union of
diagonal periodic languages, one term per minimal offset of each residue
class; when it fails, a letter without a unary word proves it.
`nerode_evidence` is a separate bounded tool: Nerode-class growth as
evidence, never as a proof.

The criterion is the one-linear-set case of `aperiodic.union_iterated_shuffle`
(the closure of L is 0 + ⟨L⟩), which the CLI uses for word sets too.
`build_representation` converts 0 + ⟨L⟩ with that fold's conversion,
`aperiodic.closure_terms`, a search for the minimal offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional

from .aperiodic import closure_terms
from .dpl import DplUnion, dpl_shift
from .errors import CriterionError, SizeGuardError
from .words import Alphabet, ParikhVector, check_word, parikh, word_order_key

NERODE_MAX_BOUND = 12


@dataclass(frozen=True)
class FiniteLang:
    alphabet: Alphabet
    words: tuple[str, ...]

    def __post_init__(self):
        for w in self.words:
            check_word(w, self.alphabet)
        if len(set(self.words)) != len(self.words):
            raise ValueError("words must be deduplicated")

    @classmethod
    def of(cls, alphabet: Alphabet, words: Iterable[str]) -> "FiniteLang":
        return cls(alphabet, tuple(dict.fromkeys(words)))

    def occurring_letters(self) -> list[str]:
        used = set().union(*(set(w) for w in self.words)) if self.words else set()
        return [a for a in self.alphabet if a in used]


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    witness_letter: Optional[str]
    representation: Optional[DplUnion]

    def __post_init__(self):
        if self.regular == (self.witness_letter is not None):
            raise ValueError("witness letter present iff non-regular")


def _failing_letter(lang: FiniteLang) -> Optional[str]:
    unary_letters = {w[0] for w in lang.words if w and len(set(w)) == 1}
    for a in lang.occurring_letters():
        if a not in unary_letters:
            return a
    return None


def build_representation(lang: FiniteLang) -> DplUnion:
    """Closure of perm(L) under shuffle, as a union of diagonal periodic
    languages: the unary-word criterion, then `closure_terms` of 0 + ⟨L⟩.
    The offset-zero term holds ε, so there is no separate {ε} term."""
    witness = _failing_letter(lang)
    if witness is not None:
        raise CriterionError(
            f"letter {witness!r} occurs in the language but has no unary word", letter=witness
        )
    zero = (0,) * len(lang.alphabet)
    vectors = [parikh(w, lang.alphabet).counts for w in lang.words]
    return DplUnion(lang.alphabet, closure_terms(lang.alphabet, zero, vectors))


def decide_finite(lang: FiniteLang) -> RegularityVerdict:
    """Apply the unary-word criterion; on success attach the representation."""
    witness = _failing_letter(lang)
    if witness is not None:
        return RegularityVerdict(False, witness, None)
    return RegularityVerdict(True, None, build_representation(lang))


def shift_representation(rep: DplUnion, v: ParikhVector) -> DplUnion:
    """Shuffle a representation with the single word language perm(v).

    Every term is shifted by `dpl_shift`.  A `build_representation` result
    carries no separate {ε} term (its offset-zero term holds ε), so the shift
    adds no point term beside the term that contains it; only the closure of
    a language without letters is {ε}, which shifts to the point perm(v).
    """
    return dpl_shift(rep, v)


def decide_prefixed(u: str, lang: FiniteLang) -> RegularityVerdict:
    """Regularity of perm(u) ⧢ (closure of perm(L)): the prefix is irrelevant
    to the verdict; the representation is the shifted closure."""
    check_word(u, lang.alphabet)
    verdict = decide_finite(lang)
    if not verdict.regular:
        return verdict
    rep = shift_representation(verdict.representation, parikh(u, lang.alphabet))
    return RegularityVerdict(True, None, rep)


@dataclass(frozen=True)
class NerodeEvidence:
    length_bound: int
    class_counts_per_bound: tuple[tuple[int, int], ...]
    distinguished_pairs: tuple[tuple[str, str, str], ...]


def nerode_evidence(
    member: Callable[[str], bool], alphabet: Alphabet, bound: int, sample_pairs: int = 5
) -> NerodeEvidence:
    """Partition words of length <= bound by their acceptance signature over
    suffixes of length <= bound; growing class counts hint at non-regularity.

    Evidence only: a bounded computation can never prove infinitely many
    Nerode classes.
    """
    if bound > NERODE_MAX_BOUND:
        raise SizeGuardError.over("nerode bound", "nerode_bound", NERODE_MAX_BOUND, bound)

    def words_upto(n: int) -> list[str]:
        out = []
        for k in range(n + 1):
            out.extend("".join(t) for t in product(alphabet.letters, repeat=k))
        return sorted(out, key=word_order_key)

    suffixes = words_upto(bound)
    signature = {w: frozenset(x for x in suffixes if member(w + x)) for w in words_upto(bound)}

    counts = []
    for b in range(1, bound + 1):
        sub_suffixes = [x for x in suffixes if len(x) <= b]
        sigs = {
            frozenset(x for x in sub_suffixes if x in signature[w])
            for w in signature
            if len(w) <= b
        }
        counts.append((b, len(sigs)))

    pairs: list[tuple[str, str, str]] = []
    reps: list[str] = []
    for w in sorted(signature, key=word_order_key):
        for r in reps:
            if signature[w] != signature[r] and len(pairs) < sample_pairs:
                sep = min(signature[w] ^ signature[r], key=word_order_key)
                pairs.append((r, w, sep))
        if all(signature[w] != signature[r] for r in reps):
            reps.append(w)
    return NerodeEvidence(bound, tuple(counts), tuple(pairs[:sample_pairs]))
