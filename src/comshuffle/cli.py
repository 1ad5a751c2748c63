"""Command line front end.

Commands: normalize, member, regular (alias regular?), dfa, check, report.
An expression evaluates to a `DplUnion`, a `FiniteLang` (an exact word set)
or an `aperiodic.Closure`.  A word set stays one under `|` and `<>` with word
sets, `&` and `project`; elsewhere `_as_union` converts it to its Parikh
image when it is permutation closed, and refuses it otherwise (outside the
fragment).  Every iterated shuffle, of a union or of a word set's Parikh
image, is a `Closure`, computed on first use.  Membership in it, for
`member`, `&` with a word set and `check`, reads its fold of linear sets
(`aperiodic.union_closure_member`), so `member` builds no normal form.  The
other operators, `invproject`, `normalize`, `regular`, `dfa`, `report` and
`check` read its normal form.  A closure proven not regular, or undecided,
has none: `member` and `check` answer on it exactly, `regular` prints the
non-regularity certificate, and `normalize`, `dfa` and `report` exit 3.  A
projection of a closure is the closure of the projected union (projection
is a monoid morphism), and converts like any other closure.
Exit codes: 0 success, 2 syntax error, 3 outside the implemented fragment,
undecided or not regular, 4 resource guard exceeded, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import suppress
from functools import cache, reduce
from math import comb
from typing import Optional

from .aperiodic import Closure, union_closure_member
from .automata import (
    STATE_GUARD_DEFAULT,
    dfa_to_dict,
    dfa_to_dot,
    dpl_to_dfa,
    minimize,
    report as automaton_report,
)
from .dpl import (
    DEFAULT_CLAUSE_GUARD,
    DiagonalPeriodic,
    DplUnion,
    Fcount,
    Fmod,
    GammaPlus,
    GammaStar,
    dpl_intersect,
    dpl_inverse_project,
    dpl_project,
    dpl_shuffle,
    dpl_union,
    dpl_union_to_dict,
    from_generators,
    in_count_set,
)
from .errors import (
    ComshuffleError,
    FragmentError,
    NonRegularError,
    ParseError,
    SizeGuardError,
    UndecidedError,
)
from .exprlang import (
    Expr,
    IntersectE,
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
from .oracle import (
    CLOSURE_MAX_BOUND,
    VectorSet,
    all_vectors,
    closure_under_addition,
    count_tuples,
    vector_sums,
)
from .regularity import FiniteLang
from .words import (
    Alphabet, ParikhVector, arrangements, parikh, perm_set, project_word, word_order_key
)

DEFAULT_CHECK_BOUND = 8
WORD_SHUFFLE_MAX_LEN = 12
WORD_SHUFFLE_MAX_WORDS = 50_000
PROJECT_ORACLE_SLACK = 12


def _shuffle_pair_words(w1: str, w2: str) -> set[str]:
    if (n := len(w1) + len(w2)) > WORD_SHUFFLE_MAX_LEN:
        raise SizeGuardError.over("word shuffle", "word_shuffle_length", WORD_SHUFFLE_MAX_LEN, n)
    if not w1:
        return {w2}
    if not w2:
        return {w1}
    return {w1[0] + w for w in _shuffle_pair_words(w1[1:], w2)} | {
        w2[0] + w for w in _shuffle_pair_words(w1, w2[1:])
    }


def _finite_shuffle(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    """The word-level shuffle, guarded on its interleavings before any is
    built: a pair of words has C(|w1|+|w2|, |w1|) of them."""
    n = sum(comb(len(w1) + len(w2), len(w1)) for w1 in l1.words for w2 in l2.words)
    if n > WORD_SHUFFLE_MAX_WORDS:
        raise SizeGuardError.over(
            "word shuffle words", "word_shuffle_words", WORD_SHUFFLE_MAX_WORDS, n
        )
    words = (
        w
        for w1 in l1.words
        for w2 in l2.words
        for w in sorted(_shuffle_pair_words(w1, w2), key=word_order_key)
    )
    return FiniteLang.of(l1.alphabet, words)


def _finite_union(lang: FiniteLang) -> DplUnion:
    """The Parikh image of a word set: one exact point term per count vector."""
    vectors = dict.fromkeys(parikh(w, lang.alphabet) for w in lang.words)
    return DplUnion(lang.alphabet, tuple(map(DiagonalPeriodic.perm_shuffle, vectors)))


def _as_union(v: DplUnion | FiniteLang | Closure, op: str = "conversion") -> DplUnion:
    """The value as a union of terms, for the operation `op`.  A closure
    gives its normal form, or raises the error that it has none.  A word set
    converts exactly when it is permutation closed, that is when it holds,
    for each multiset of letters it uses, all the multinomially many words
    with those letters; any other word set is outside the fragment."""
    if isinstance(v, DplUnion):
        return v
    if isinstance(v, Closure):
        return v.normal_form
    groups = Counter("".join(sorted(w)) for w in v.words)
    if not all(n == arrangements(k) for k, n in groups.items()):
        raise FragmentError(
            f"{op} of a word set that is not permutation closed is outside the "
            "implemented fragment"
        )
    return _finite_union(v)


def _union_values(v1, v2):
    if isinstance(v1, FiniteLang) and isinstance(v2, FiniteLang):
        return FiniteLang.of(v1.alphabet, v1.words + v2.words)
    return dpl_union(_as_union(v1, "union"), _as_union(v2, "union"))


def _member_counts(v: DplUnion | Closure, counts: tuple[int, ...]) -> bool:
    """Membership of a count vector in a union, or in a closure's fold."""
    if isinstance(v, DplUnion):
        return any(all(map(in_count_set, counts, t.sets)) for t in v.terms)
    return union_closure_member(counts, v)


def _member_word(v: DplUnion | FiniteLang | Closure, w: str) -> bool:
    """Membership of a word; a union or closure tests its Parikh vector."""
    if isinstance(v, FiniteLang):
        return w in v.words
    return _member_counts(v, parikh(w, v.alphabet).counts)


def _intersect_values(v1, v2):
    if isinstance(v1, FiniteLang):
        return FiniteLang.of(v1.alphabet, [w for w in v1.words if _member_word(v2, w)])
    if isinstance(v2, FiniteLang):
        return _intersect_values(v2, v1)
    return dpl_intersect(_as_union(v1, "intersection"), _as_union(v2, "intersection"))


def _shuffle_values(v1, v2):
    if isinstance(v1, FiniteLang) and isinstance(v2, FiniteLang):
        return _finite_shuffle(v1, v2)
    return dpl_shuffle(_as_union(v1, "shuffle"), _as_union(v2, "shuffle"))


_BINARY = {
    UnionE: ("|", _union_values),
    IntersectE: ("&", _intersect_values),
    ShuffleE: ("<>", _shuffle_values),
}


def _iterated_shuffle(child: DplUnion | FiniteLang | Closure) -> Closure:
    """The iterated shuffle of a union or of a word set's Parikh image, as a
    `Closure` that computes nothing yet.  A closure is its own iterated
    shuffle.

    A word set F takes the Parikh route only where sh*(F) is commutative:
    F is permutation closed, or F holds the one-letter word of every letter
    it uses, so that sh*(F) is all words over those letters.  Any other word
    set is outside the fragment (sh*({ab}) holds ab but not ba)."""
    if isinstance(child, Closure):
        return child
    if isinstance(child, FiniteLang) and set("".join(child.words)) <= set(child.words):
        return Closure(_finite_union(child))
    return Closure(_as_union(child, "iterated shuffle"))


def eval_expr(
    e: Expr, alphabet: Alphabet, clause_guard: int = DEFAULT_CLAUSE_GUARD
) -> DplUnion | FiniteLang | Closure:
    if isinstance(e, WordLit):
        return FiniteLang.of(alphabet, [e.word])
    if isinstance(e, SetLit):
        return FiniteLang.of(alphabet, e.words)
    if isinstance(e, Perm):
        return FiniteLang.of(alphabet, perm_set(e.word))
    if isinstance(e, (Fcount, Fmod, GammaStar, GammaPlus)):
        return from_generators(e, alphabet, clause_guard)
    if type(e) in _BINARY:
        op, combine = _BINARY[type(e)]
        vals = [eval_expr(p, alphabet, clause_guard) for p in e.parts]
        if len({v.alphabet for v in vals}) > 1:
            shown = " and ".join(dict.fromkeys("{" + ",".join(v.alphabet) + "}" for v in vals))
            raise ComshuffleError(f"the operands of {op} have different alphabets: {shown}")
        value = vals[0]
        for v in vals[1:]:
            value = combine(value, v)
            if isinstance(value, DplUnion) and len(value.terms) > clause_guard:
                raise SizeGuardError.over("clause", "clauses", clause_guard, len(value.terms))
        return value
    if isinstance(e, IterShuffle):
        return _iterated_shuffle(eval_expr(e.child, alphabet, clause_guard))
    if isinstance(e, Project):
        child = eval_expr(e.child, alphabet, clause_guard)
        if isinstance(child, FiniteLang):
            words = [project_word(w, e.letters) for w in child.words]
            return FiniteLang.of(child.alphabet.restrict(e.letters), words)
        if isinstance(child, Closure):
            # projection is a monoid morphism: it maps sh*(X) to sh*(project(X))
            return Closure(dpl_project(child.union, e.letters))
        return dpl_project(child, e.letters)
    if isinstance(e, InvProject):
        child = eval_expr(e.child, alphabet, clause_guard)
        return dpl_inverse_project(_as_union(child, "inverse projection"), alphabet)
    raise TypeError(f"unknown expression node: {e!r}")


# --- oracle semantics -----------------------------------------------------


def expr_alphabet(e: Expr, session: Alphabet) -> Alphabet:
    if isinstance(e, Project):
        return expr_alphabet(e.child, session).restrict(e.letters)
    if isinstance(e, (UnionE, IntersectE, ShuffleE)):
        return expr_alphabet(e.parts[0], session)
    if isinstance(e, IterShuffle):
        return expr_alphabet(e.child, session)
    return session


def oracle_set(e: Expr, alphabet: Alphabet, bound: int) -> frozenset[ParikhVector]:
    """Brute-force Parikh semantics of an expression, independent of the
    symbolic evaluator."""
    if isinstance(e, (WordLit, Perm)):
        v = parikh(e.word, alphabet)
        return frozenset([v] if v.total() <= bound else [])
    if isinstance(e, SetLit):
        return frozenset(
            v
            for w in e.words
            if (v := parikh(w, alphabet)).total() <= bound
        )
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
            v
            for v in all_vectors(alphabet, bound)
            if v.support() <= e.letters and v.total() >= 1
        )
    if isinstance(e, UnionE):
        return frozenset().union(*(oracle_set(p, alphabet, bound) for p in e.parts))
    if isinstance(e, IntersectE):
        sets = [oracle_set(p, alphabet, bound) for p in e.parts]
        return frozenset(reduce(lambda x, y: x & y, sets))
    if isinstance(e, ShuffleE):
        target = expr_alphabet(e, alphabet)
        sets = [VectorSet(target, oracle_set(p, alphabet, bound), bound) for p in e.parts]
        return reduce(lambda x, y: vector_sums(x, y, bound), sets).vectors
    if isinstance(e, IterShuffle):
        target = expr_alphabet(e, alphabet)
        base = VectorSet(target, oracle_set(e.child, alphabet, bound), bound)
        return closure_under_addition(base, bound).vectors
    if isinstance(e, Project):
        # a short projected vector may only arise from a longer child vector:
        # the child's window is PROJECT_ORACLE_SLACK wider
        inner = oracle_set(e.child, alphabet, bound + PROJECT_ORACLE_SLACK)
        return frozenset(r for v in inner if (r := v.restrict(e.letters)).total() <= bound)
    if isinstance(e, InvProject):
        inner_alpha = expr_alphabet(e.child, alphabet)
        inner = oracle_set(e.child, alphabet, bound)
        return frozenset(
            v for v in all_vectors(alphabet, bound) if v.restrict(inner_alpha.letters) in inner
        )
    raise TypeError(f"unknown expression node: {e!r}")


# --- output helpers -------------------------------------------------------


def value_to_dict(v: DplUnion | FiniteLang | Closure) -> dict:
    if isinstance(v, FiniteLang):
        return {"alphabet": list(v.alphabet.letters), "words": sorted(v.words, key=word_order_key)}
    return dpl_union_to_dict(_as_union(v))


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


# --- command implementations ----------------------------------------------


def _resolve(args) -> tuple[Expr, Alphabet]:
    """The parsed expression and its alphabet; a negative guard is refused
    (exit 2) before anything is parsed."""
    for flag, guard in (("--guard-clauses", args.guard_clauses),
                        ("--guard-states", args.guard_states)):
        if guard < 0:
            raise ValueError(f"{flag} must be non-negative, got {guard}")
    alphabet = Alphabet.of(args.alphabet) if args.alphabet else None
    return parse(args.expr, alphabet)


def cmd_normalize(args) -> int:
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    print(_canonical_json(value_to_dict(value)))
    return 0


def cmd_member(args) -> int:
    """Print whether the word is in the value.  A closure answers from its
    fold (`aperiodic.union_closure_member`) and builds no normal form: so a
    closure that has none, or whose conversion would trip a guard or take
    long, answers too."""
    e, alphabet = _resolve(args)
    for a in args.word:
        if a not in alphabet:
            raise ParseError(f"unknown letter {a!r} in word")
    value = eval_expr(e, alphabet, args.guard_clauses)
    # a projection's value lacks some session letters: no word using one of
    # them is a member
    found = set(args.word) <= set(value.alphabet) and _member_word(value, args.word)
    print("true" if found else "false")
    return 0


def cmd_regular(args) -> int:
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    try:
        verdict = {"regular": True, "witness": None, "representation": value_to_dict(value)}
    except NonRegularError as err:  # only a closure's normal form raises it here
        witness = {"witness": err.letter, "subalphabet": list(err.subalphabet)}
        verdict = {"regular": False, **witness, "representation": None}
    print(_canonical_json(verdict))
    return 0


def _dfa_for(args):
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    return dpl_to_dfa(_as_union(value, "automaton compilation"), args.guard_states)


def cmd_dfa(args) -> int:
    d = _dfa_for(args)
    if args.minimize:
        d = minimize(d)
    if args.dot:
        sys.stdout.write(dfa_to_dot(d))
    else:
        print(_canonical_json(dfa_to_dict(d)))
    return 0


def cmd_report(args) -> int:
    d = minimize(_dfa_for(args))
    print(_canonical_json(automaton_report(d).to_dict()))
    return 0


def cmd_check(args) -> int:
    """Compare the value with the brute-force oracle (`oracle_set`) on every
    count vector of coordinate sum <= --bound; print PASS (exit 0), or FAIL at
    the least differing vector by sum, then lexicographically (exit 5).

    A negative bound is refused (exit 2), and one above
    `oracle.CLOSURE_MAX_BOUND` trips the `check_bound` guard (exit 4) before
    anything is enumerated.  A word set is compared by its Parikh image, and
    a closure by its normal form, so that the check tests the conversion;
    only a closure without one is compared by its fold.

    The oracle projects the child's vectors of sum <= --bound +
    PROJECT_ORACLE_SLACK, so a projected vector that only a longer child
    vector gives is missed and reported as a false FAIL: for example
    `check --alphabet ab --bound 4 "project(F(b,20), {a})"`.
    """
    bound = args.bound
    if bound < 0:
        raise ValueError(f"--bound must be non-negative, got {bound}")
    if bound > CLOSURE_MAX_BOUND:
        raise SizeGuardError.over("check bound", "check_bound", CLOSURE_MAX_BOUND, bound)
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    if isinstance(value, FiniteLang):
        value = _finite_union(value)
    elif isinstance(value, Closure):
        with suppress(NonRegularError, UndecidedError):
            value = value.normal_form
    target = expr_alphabet(e, alphabet)
    expected = {v.counts for v in oracle_set(e, alphabet, bound)}
    actual = {c for c in count_tuples(len(target), bound) if _member_counts(value, c)}
    if not (diff := expected ^ actual):
        print(f"PASS (bound {bound})")
        return 0
    counterexample = min(diff, key=lambda c: (sum(c), c))
    print(f"FAIL at {dict(zip(target.letters, counterexample))} (bound {bound})")
    return 5


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="comshuffle",
        description="Algebra of commutative regular languages in diagonal periodic form.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", help="session alphabet, e.g. abc")
    common.add_argument(
        "--guard-clauses", type=int, default=DEFAULT_CLAUSE_GUARD,
        help="clause guard: the most terms of a union built by the generators or by one "
        "step of |, & or <>",
    )
    common.add_argument(
        "--guard-states", type=int, default=STATE_GUARD_DEFAULT,
        help="state guard for automaton construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("normalize", help="print the normal form as JSON")
    p.add_argument("expr")
    p.set_defaults(func=cmd_normalize)

    p = add_parser("member", help="test word membership")
    p.add_argument("word")
    p.add_argument("expr")
    p.set_defaults(func=cmd_member)

    p = add_parser(
        "regular", aliases=["regular?"], help="regularity verdict for an iterated shuffle"
    )
    p.add_argument("expr")
    p.set_defaults(func=cmd_regular)

    p = add_parser("dfa", help="compile to a DFA")
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--minimize", action="store_true")
    p.set_defaults(func=cmd_dfa)

    p = add_parser("check", help="compare against the brute-force oracle")
    p.add_argument("expr")
    p.add_argument("--bound", type=int, default=DEFAULT_CHECK_BOUND)
    p.set_defaults(func=cmd_check)

    p = add_parser("report", help="predicates of the minimized DFA")
    p.add_argument("expr")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (as with `| head`): send what is left in the
        # buffer to devnull so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParseError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return 2
    except (FragmentError, UndecidedError) as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return 3
    except SizeGuardError as err:
        print(f"guard exceeded: {err}", file=sys.stderr)
        return 4
    except ComshuffleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
