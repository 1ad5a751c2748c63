"""Regularity of the iterated shuffle of finite commutative languages.

The criterion: the shuffle closure of perm(L) is regular exactly when every
letter occurring somewhere in L also occurs as a unary word of L.  When it
holds, the closure has an explicit representation as a finite union of
diagonal periodic languages, built here with the bounded-coefficient
construction; when it fails, bounded Nerode-class growth is reported as
evidence (never as a proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional

from .dpl import DiagonalPeriodic, DplUnion, dpl_shift, dpl_union_member
from .errors import CriterionError, SizeGuardError
from .progressions import Progression
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

    def to_dict(self) -> dict:
        from .dpl import dpl_union_to_dict

        return {
            "regular": self.regular,
            "witness": self.witness_letter,
            "representation": (
                dpl_union_to_dict(self.representation) if self.representation else None
            ),
        }


def _failing_letter(lang: FiniteLang) -> Optional[str]:
    unary_letters = {w[0] for w in lang.words if w and len(set(w)) == 1}
    for a in lang.occurring_letters():
        if a not in unary_letters:
            return a
    return None


def build_representation(lang: FiniteLang) -> DplUnion:
    """Closure of perm(L) under shuffle, as a union of diagonal periodic languages.

    For each occurring letter one unary word (multiplicity m_a) is selected;
    the remaining words' coefficients can be bounded by B = prod m_a, so the
    closure is the union over those coefficient vectors of a single diagonal
    periodic term, plus {ε}.
    """
    witness = _failing_letter(lang)
    if witness is not None:
        raise CriterionError(
            f"letter {witness!r} occurs in the language but has no unary word", letter=witness
        )
    occurring = lang.occurring_letters()
    words = [w for w in lang.words if w]  # ε contributes nothing to the closure
    selected: dict[str, str] = {}
    for a in occurring:
        candidates = [w for w in words if set(w) == {a}]
        selected[a] = min(candidates, key=lambda w: (len(w), words.index(w)))
    mult = {a: len(w) for a, w in selected.items()}
    bound = 1
    for m in mult.values():
        bound *= m
    rest = [w for w in words if w not in set(selected.values())]
    vectors = [parikh(w, lang.alphabet) for w in rest]
    terms = [DiagonalPeriodic.epsilon(lang.alphabet)]
    for coeffs in product(range(bound), repeat=len(rest)):
        offset = ParikhVector.zero(lang.alphabet)
        for c, v in zip(coeffs, vectors):
            for _ in range(c):
                offset = offset + v
        progs = {a: Progression(offset[a], mult[a]) for a in occurring}
        terms.append(DiagonalPeriodic.make(lang.alphabet, progs))
    return DplUnion.of(lang.alphabet, terms)


def decide_finite(lang: FiniteLang) -> RegularityVerdict:
    """Apply the unary-word criterion; on success attach the representation."""
    witness = _failing_letter(lang)
    if witness is not None:
        return RegularityVerdict(False, witness, None)
    return RegularityVerdict(True, None, build_representation(lang))


def shift_representation(rep: DplUnion, v: ParikhVector) -> DplUnion:
    """Shuffle a representation with the single word language perm(v).

    Every term other than {ε} is shifted by `dpl_shift`.  The {ε} term's
    shift is the exact point perm(v): it is dropped when some shifted term
    already contains v, so that the point does not add a term.  That is always
    the case for a `build_representation` result with some occurring letter,
    whose coefficient-zero term has offset zero on every letter.
    """
    if v.total() == 0:
        return rep
    eps = DiagonalPeriodic.epsilon(rep.alphabet)
    shifted = dpl_shift(DplUnion.of(rep.alphabet, [t for t in rep.terms if t != eps]), v)
    if eps in rep.terms and not dpl_union_member(v, shifted):
        shifted = DplUnion.of(rep.alphabet, shifted.terms + (DiagonalPeriodic.perm_shuffle(v),))
    return shifted


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
        raise SizeGuardError(f"nerode bound limited to {NERODE_MAX_BOUND}, got {bound}")

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
