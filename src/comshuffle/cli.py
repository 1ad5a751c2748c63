"""Command line front end.

Commands: normalize, member, regular (alias regular?), dfa, check, report.
Exit codes: 0 success, 2 syntax error, 3 outside the implemented fragment or
undecided, 4 resource guard exceeded, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union as TUnion

from .aperiodic import union_closure_member, union_iterated_shuffle
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
    dpl_iterated_shuffle,
    dpl_project,
    dpl_shuffle,
    dpl_union,
    dpl_union_member,
    dpl_union_to_dict,
    from_generators,
)
from .errors import (
    ComshuffleError,
    FragmentError,
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
    Plus,
    Project,
    SetLit,
    ShuffleE,
    Star,
    UnionE,
    WordLit,
    parse,
)
from .oracle import (
    VectorSet,
    all_vectors,
    closure_under_addition,
    sets_equal,
    vector_sums,
)
from .regularity import FiniteLang, decide_finite
from .words import Alphabet, ParikhVector, parikh, perm_set, project_word, word_order_key

DEFAULT_CHECK_BOUND = 8
WORD_SHUFFLE_MAX_LEN = 12
PROJECT_ORACLE_SLACK = 12


@dataclass(frozen=True)
class Value:
    """Evaluation result: a normal form tagged with its representation kind.

    kind "dpl": DplUnion, the commutative languages (exact letter counts
    included); "finite": FiniteLang, an exact word set, which need not be
    permutation closed; "shuffle_finite": FiniteLang whose iterated shuffle is
    meant (non-regular case, membership only).
    """

    kind: str
    payload: object

    @property
    def alphabet(self) -> Alphabet:
        return self.payload.alphabet


def _shuffle_pair_words(w1: str, w2: str) -> set[str]:
    if len(w1) + len(w2) > WORD_SHUFFLE_MAX_LEN:
        raise SizeGuardError(
            f"word shuffle limited to combined length {WORD_SHUFFLE_MAX_LEN}"
        )
    if not w1:
        return {w2}
    if not w2:
        return {w1}
    return {w1[0] + w for w in _shuffle_pair_words(w1[1:], w2)} | {
        w2[0] + w for w in _shuffle_pair_words(w1, w2[1:])
    }


def _finite_shuffle(l1: FiniteLang, l2: FiniteLang) -> FiniteLang:
    words = (
        w
        for w1 in l1.words
        for w2 in l2.words
        for w in sorted(_shuffle_pair_words(w1, w2), key=word_order_key)
    )
    return FiniteLang.of(l1.alphabet, words)


def _finite_union(lang: FiniteLang) -> DplUnion:
    """The Parikh image of a word set: one exact point term per count vector."""
    return DplUnion.of(
        lang.alphabet,
        (DiagonalPeriodic.perm_shuffle(parikh(w, lang.alphabet)) for w in lang.words),
    )


def _as_union(v: Value) -> Optional[DplUnion]:
    """The value as a union of terms; a word set converts exactly when it is
    permutation closed."""
    if v.kind == "dpl":
        return v.payload
    if v.kind == "finite":
        words = set(v.payload.words)
        if all(x in words for w in words for x in perm_set(w)):
            return _finite_union(v.payload)
    return None


def _fragment(op: str, kinds) -> FragmentError:
    return FragmentError(
        f"{op} is outside the implemented fragment for operand kinds {kinds}; "
        "a general normal form for this combination is not available"
    )


def _both_unions(op: str, v1: Value, v2: Value) -> tuple[DplUnion, DplUnion]:
    u1, u2 = _as_union(v1), _as_union(v2)
    if u1 is None or u2 is None:
        raise _fragment(op, (v1.kind, v2.kind))
    return u1, u2


def _union_values(v1: Value, v2: Value) -> Value:
    if v1.kind == "finite" and v2.kind == "finite":
        return Value(
            "finite",
            FiniteLang.of(v1.alphabet, v1.payload.words + v2.payload.words),
        )
    return Value("dpl", dpl_union(*_both_unions("union", v1, v2)))


def _member_word(v: Value, w: TUnion[str, ParikhVector]) -> bool:
    """Membership of a word, or of a count vector in a commutative kind;
    commutative kinds go through the Parikh vector."""
    if v.kind == "finite":
        return w in v.payload.words
    vec = parikh(w, v.alphabet) if isinstance(w, str) else w
    if v.kind == "dpl":
        return dpl_union_member(vec, v.payload)
    if v.kind == "shuffle_finite":
        return union_closure_member(vec, _finite_union(v.payload))
    raise TypeError(v.kind)


def _intersect_values(v1: Value, v2: Value) -> Value:
    if v1.kind == "finite":
        kept = [w for w in v1.payload.words if _member_word(v2, w)]
        return Value("finite", FiniteLang.of(v1.alphabet, kept))
    if v2.kind == "finite":
        return _intersect_values(v2, v1)
    return Value("dpl", dpl_intersect(*_both_unions("intersection", v1, v2)))


def _shuffle_values(v1: Value, v2: Value) -> Value:
    if v1.kind == "finite" and v2.kind == "finite":
        return Value("finite", _finite_shuffle(v1.payload, v2.payload))
    return Value("dpl", dpl_shuffle(*_both_unions("shuffle", v1, v2)))


def eval_expr(e: Expr, alphabet: Alphabet, clause_guard: int = DEFAULT_CLAUSE_GUARD) -> Value:
    if isinstance(e, WordLit):
        return Value("finite", FiniteLang.of(alphabet, [e.word]))
    if isinstance(e, SetLit):
        return Value("finite", FiniteLang.of(alphabet, e.words))
    if isinstance(e, Perm):
        return Value("finite", FiniteLang.of(alphabet, perm_set(e.word)))
    if isinstance(e, (Fcount, Fmod)):
        return Value("dpl", from_generators(e, alphabet, clause_guard))
    if isinstance(e, Star):
        return Value("dpl", from_generators(GammaStar(e.letters), alphabet, clause_guard))
    if isinstance(e, Plus):
        return Value("dpl", from_generators(GammaPlus(e.letters), alphabet, clause_guard))
    if isinstance(e, UnionE):
        vals = [eval_expr(p, alphabet, clause_guard) for p in e.parts]
        return reduce(_union_values, vals)
    if isinstance(e, IntersectE):
        vals = [eval_expr(p, alphabet, clause_guard) for p in e.parts]
        return reduce(_intersect_values, vals)
    if isinstance(e, ShuffleE):
        vals = [eval_expr(p, alphabet, clause_guard) for p in e.parts]
        return reduce(_shuffle_values, vals)
    if isinstance(e, IterShuffle):
        child = eval_expr(e.child, alphabet, clause_guard)
        if child.kind == "finite":
            verdict = decide_finite(child.payload)
            if verdict.regular:
                return Value("dpl", verdict.representation)
            return Value("shuffle_finite", child.payload)
        if child.kind != "dpl":
            raise _fragment("iterated shuffle", (child.kind,))
        if any(t.exact for t in child.payload.terms):
            # exact counts are handled for perm(u) ⧢ Γ* terms, i.e. period one
            return Value("dpl", union_iterated_shuffle(child.payload))
        return Value("dpl", dpl_iterated_shuffle(child.payload))
    if isinstance(e, Project):
        child = eval_expr(e.child, alphabet, clause_guard)
        if child.kind == "dpl":
            return Value("dpl", dpl_project(child.payload, e.letters))
        if child.kind == "finite":
            words = [project_word(w, e.letters) for w in child.payload.words]
            return Value(
                "finite", FiniteLang.of(child.alphabet.restrict(e.letters), words)
            )
        raise _fragment("projection", (child.kind,))
    if isinstance(e, InvProject):
        child = eval_expr(e.child, alphabet, clause_guard)
        u = _as_union(child)
        if u is None:
            raise _fragment("inverse projection", (child.kind,))
        return Value("dpl", dpl_inverse_project(u, alphabet))
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
    if isinstance(e, Star):
        return frozenset(v for v in all_vectors(alphabet, bound) if v.support() <= e.letters)
    if isinstance(e, Plus):
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
        sets = [VectorSet(alphabet, oracle_set(p, alphabet, bound), bound) for p in e.parts]
        return reduce(lambda x, y: vector_sums(x, y, bound), sets).vectors
    if isinstance(e, IterShuffle):
        base = VectorSet(alphabet, oracle_set(e.child, alphabet, bound), bound)
        return closure_under_addition(base, bound).vectors
    if isinstance(e, Project):
        # a short projected vector may only arise from a longer child vector;
        # widen the child window until the projection stops growing
        window: frozenset[ParikhVector] = frozenset()
        stable = 0
        for child_bound in range(bound, bound + PROJECT_ORACLE_SLACK + 1):
            inner = oracle_set(e.child, alphabet, child_bound)
            grown = frozenset(
                r for v in inner if (r := v.restrict(e.letters)).total() <= bound
            )
            if grown == window:
                stable += 1
                if stable >= 2:
                    break
            else:
                window = grown
                stable = 0
        return window
    if isinstance(e, InvProject):
        inner_alpha = expr_alphabet(e.child, alphabet)
        inner = oracle_set(e.child, alphabet, bound)
        return frozenset(
            v for v in all_vectors(alphabet, bound) if v.restrict(inner_alpha.letters) in inner
        )
    raise TypeError(f"unknown expression node: {e!r}")


# --- output helpers -------------------------------------------------------


def value_to_dict(v: Value) -> dict:
    if v.kind == "dpl":
        return dpl_union_to_dict(v.payload)
    if v.kind == "finite":
        return {
            "alphabet": list(v.alphabet.letters),
            "words": sorted(v.payload.words, key=word_order_key),
        }
    raise FragmentError(
        "no normal form is available for this expression; its iterated shuffle "
        "is not regular"
    )


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def _verdict_dict(e: Expr, alphabet: Alphabet, clause_guard: int) -> dict:
    if isinstance(e, IterShuffle):
        child = eval_expr(e.child, alphabet, clause_guard)
        if child.kind == "finite":
            return decide_finite(child.payload).to_dict()
    value = eval_expr(e, alphabet, clause_guard)
    if value.kind == "shuffle_finite":
        # only reachable when IterShuffle sits deeper in the expression
        raise FragmentError("non-regular subexpression inside a larger expression")
    rep = value_to_dict(value)
    return {"regular": True, "witness": None, "representation": rep}


# --- command implementations ----------------------------------------------


def _resolve(args) -> tuple[Expr, Alphabet]:
    alphabet = Alphabet.of(args.alphabet) if args.alphabet else None
    return parse(args.expr, alphabet)


def cmd_normalize(args) -> int:
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    print(_canonical_json(value_to_dict(value)))
    return 0


def cmd_member(args) -> int:
    e, alphabet = _resolve(args)
    for a in args.word:
        if a not in alphabet:
            raise ParseError(f"unknown letter {a!r} in word")
    value = eval_expr(e, alphabet, args.guard_clauses)
    print("true" if _member_word(value, args.word) else "false")
    return 0


def cmd_regular(args) -> int:
    e, alphabet = _resolve(args)
    print(_canonical_json(_verdict_dict(e, alphabet, args.guard_clauses)))
    return 0


def _dfa_for(args):
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    u = _as_union(value)
    if u is None:
        raise _fragment("automaton compilation", (value.kind,))
    return dpl_to_dfa(u, args.guard_states)


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
    e, alphabet = _resolve(args)
    value = eval_expr(e, alphabet, args.guard_clauses)
    bound = args.bound
    target = expr_alphabet(e, alphabet)
    expected = VectorSet(target, oracle_set(e, alphabet, bound), bound)
    if value.kind == "finite":
        # the oracle gives a word set its Parikh image
        value = Value("dpl", _finite_union(value.payload))
    actual = VectorSet(
        target,
        frozenset(v for v in all_vectors(target, bound) if _member_word(value, v)),
        bound,
    )
    ok, counterexample = sets_equal(expected, actual)
    if ok:
        print(f"PASS (bound {bound})")
        return 0
    print(f"FAIL at {counterexample.as_dict()} (bound {bound})")
    return 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comshuffle",
        description="Algebra of commutative regular languages in diagonal periodic form.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alphabet", help="session alphabet, e.g. abc")
    common.add_argument(
        "--guard-clauses", type=int, default=DEFAULT_CLAUSE_GUARD,
        help="clause guard for normal form construction",
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
        return args.func(args)
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
