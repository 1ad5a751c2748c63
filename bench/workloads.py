"""Seeded inputs, operations and oracle checks for the three workloads.

Each workload is a fixed list of cases drawn from `random.Random(seed)`.  A
case carries its inputs, a stable text description (hashed into the input
digest) and nothing derived from running the program: every size cap below
is computed from the input alone, so a faster commit runs identical work.

Library calls go through module attributes (`dpl.dpl_shuffle`, ...), the way
the package's own modules look each other up, so the tracing wrappers in
`tracing.py` see them.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import reduce
from itertools import permutations, product

from comshuffle import automata, cli, dpl, oracle, regularity
from comshuffle.aperiodic import aperiodic_union_from_dict, union_member
from comshuffle.automata import dfa_from_dict
from comshuffle.dpl import (
    DiagonalPeriodic,
    DplUnion,
    Fcount,
    Fmod,
    GammaPlus,
    GammaStar,
    GenIntersect,
    GenUnion,
    dpl_union_from_dict,
    dpl_union_member,
)
from comshuffle.progressions import Progression
from comshuffle.regularity import FiniteLang
from comshuffle.words import Alphabet, ParikhVector, parikh

A, AB, ABC = Alphabet.of("a"), Alphabet.of("ab"), Alphabet.of("abc")

# Oracle windows: languages are compared on every count vector up to this
# coordinate sum, and automata on every word up to WORD_BOUND letters.
VECTOR_BOUND = {1: 30, 2: 14, 3: 9}
WORD_BOUND = {1: 10, 2: 9, 3: 6}

# Input-side caps.  Reference cases kept out on purpose (see NOTES.md): the
# 4-term iterated shuffle with cap 10985 (402 s), compiling its 1077-term
# 3-term cousin (cap 273, 276 s), and sh*({aaaaa,bbbbb,ab,aab,abb}) with
# 15625 coefficient vectors (14.8 s).
ITER_CAP = 160            # prod over terms of (lcm of periods + 1)
SHUFFLE_CAP = 240         # prod-product expansion bound of a binary shuffle
GEN_CAP = 120             # clause bound of a generator expression
COEFF_CAP = 400           # prod m_a ** |rest| in build_representation
COUNTER_CAP = 4000        # prod (k + p) over compile counters
EXTRACT_TUPLE_CAP = 4000  # count vectors enumerated by dfa_to_dpl
ACCEPT_READS = 50
ACCEPT_WORD_MAX = 60


class Mismatch(Exception):
    """An operation's answer disagrees with the oracle."""


@dataclass(frozen=True)
class Case:
    kind: str
    args: tuple
    desc: str


def _lcm(values) -> int:
    return reduce(math.lcm, values, 1)


def fmt_union(u: DplUnion) -> str:
    terms = [
        " ".join(f"{a}:{p.offset}+{p.period}N" for a, p in t.progs) or "eps"
        for t in u.terms
    ]
    return f"{''.join(u.alphabet.letters)}{{{' | '.join(terms)}}}"


def rand_union(rng, alphabet, n_terms, kmax, pmax, p_support=0.75) -> DplUnion:
    terms = []
    for _ in range(n_terms):
        progs = {
            a: Progression(rng.randint(0, kmax), rng.randint(1, pmax))
            for a in alphabet
            if rng.random() < p_support
        }
        terms.append(DiagonalPeriodic.make(alphabet, progs))
    return DplUnion.of(alphabet, terms)


def _draw(rng, make, cost, lo, hi, what):
    """Draw inputs until one's input-side cost lies in [lo, hi]."""
    for _ in range(20_000):
        x = make()
        if lo <= cost(x) <= hi:
            return x
    raise RuntimeError(f"generator could not fill stratum {what} [{lo}, {hi}]")


def _enum(u: DplUnion, bound: int):
    return oracle.dpl_enumerate(u, bound)


def _same(got, expected, what: str) -> None:
    ok, cex = oracle.sets_equal(got, expected)
    if not ok:
        raise Mismatch(f"{what}: languages differ at {cex.as_dict()}")


def letter_map(rng, letters) -> dict:
    """A random permutation of `letters`."""
    image = list(letters)
    rng.shuffle(image)
    return dict(zip(letters, image))


def rename_union(u: DplUnion, sigma: dict) -> DplUnion:
    """The union with its letters renamed by `sigma` (identity elsewhere)."""
    terms = [
        DiagonalPeriodic.make(u.alphabet, {sigma.get(a, a): p for a, p in t.progs})
        for t in u.terms
    ]
    return DplUnion.of(u.alphabet, terms)


class Workload:
    """A seeded case list with a runner, an oracle check and a size count.

    Operation costs in this library are heavy-tailed: two unions with the
    same iteration cap can differ a hundredfold in time, and offsets alone
    move output sizes by a tenth.  So each case's structure (alphabet, terms,
    offsets, periods, expression, word lengths), which sets its cost, comes
    from a generator with the fixed seed SHAPE_SEED.  --seed draws the rest:
    a renaming of the letters in each case, the words read or tested, and
    the order of the cases.  Every seed thus runs a different case list with
    the same sizes and nearly the same costs.
    """

    name = ""
    SHAPE_SEED = 0
    WARMUP = 8

    def __init__(self, seed: int):
        self.shape = random.Random(self.SHAPE_SEED)
        self.rng = random.Random(seed)
        self.cases: list[Case] = []
        self.verified: dict[int, object] = {}

    def _shuffle(self) -> None:
        """Put the cases in seeded order.  The warm-up cases are picked before,
        by position in the shape list, so set-up does the same work for
        every seed."""
        step = max(1, len(self.cases) // self.WARMUP)
        warm = self.cases[::step][: self.WARMUP]
        self.rng.shuffle(self.cases)
        self.warmup = [self.cases.index(case) for case in warm]

    def check(self, index: int, result) -> None:
        """Raise Mismatch unless `result` is correct for case `index`.

        The first answer for a case is checked against the oracle; later
        answers equal to an accepted one are accepted, and any other answer
        gets the full oracle check again.
        """
        if index in self.verified and self.verified[index] == result:
            return
        self.oracle_check(self.cases[index], result)
        self.verified.setdefault(index, result)


# --- algebra ---------------------------------------------------------------


def _iter_cap(u: DplUnion) -> int:
    return math.prod(_lcm(p.period for _, p in t.progs) + 1 for t in u.terms)


def _semigroup_options(p1: Progression, p2: Progression) -> int:
    # elements of <a, b> below the conductor number (a-1)(b-1)/2, plus the tail
    g = math.gcd(p1.period, p2.period)
    a, b = p1.period // g, p2.period // g
    return (a - 1) * (b - 1) // 2 + 1


def _shuffle_cap(pair) -> int:
    u1, u2 = pair
    total = 0
    for t1 in u1.terms:
        for t2 in u2.terms:
            q1, q2 = t1.prog_dict(), t2.prog_dict()
            total += math.prod(
                _semigroup_options(q1[a], q2[a]) for a in q1 if a in q2
            )
    return total


def _gen_cap(e) -> int:
    if isinstance(e, GenUnion):
        return sum(_gen_cap(p) for p in e.parts)
    if isinstance(e, GenIntersect):
        return math.prod(_gen_cap(p) for p in e.parts)
    if isinstance(e, GammaPlus):
        return len(e.letters)
    return 1


def _gen_holds(e, v: ParikhVector) -> bool:
    if isinstance(e, GenUnion):
        return any(_gen_holds(p, v) for p in e.parts)
    if isinstance(e, GenIntersect):
        return all(_gen_holds(p, v) for p in e.parts)
    if isinstance(e, Fcount):
        return v[e.letter] >= e.threshold
    if isinstance(e, Fmod):
        return v[e.letter] % e.modulus == e.residue
    if isinstance(e, GammaStar):
        return v.support() <= e.letters
    if isinstance(e, GammaPlus):
        return v.support() <= e.letters and v.total() >= 1
    raise TypeError(e)


def fmt_gen(e) -> str:
    if isinstance(e, GenUnion):
        return "(" + " | ".join(fmt_gen(p) for p in e.parts) + ")"
    if isinstance(e, GenIntersect):
        return "(" + " & ".join(fmt_gen(p) for p in e.parts) + ")"
    if isinstance(e, Fcount):
        return f"F({e.letter},{e.threshold})"
    if isinstance(e, Fmod):
        return f"F({e.letter},{e.residue},{e.modulus})"
    if isinstance(e, GammaStar):
        return "{" + ",".join(sorted(e.letters)) + "}*"
    return "{" + ",".join(sorted(e.letters)) + "}+"


def _rename_gen(e, sigma: dict):
    if isinstance(e, (GenUnion, GenIntersect)):
        return type(e)(tuple(_rename_gen(p, sigma) for p in e.parts))
    if isinstance(e, Fcount):
        return Fcount(sigma[e.letter], e.threshold)
    if isinstance(e, Fmod):
        return Fmod(sigma[e.letter], e.residue, e.modulus)
    return type(e)(frozenset(sigma[a] for a in e.letters))


def coeff_vectors(lang: FiniteLang) -> int:
    """prod m_a ** |rest|: the coefficient vectors build_representation visits."""
    words = [w for w in lang.words if w]
    selected = {}
    for a in lang.occurring_letters():
        unary = [w for w in words if set(w) == {a}]
        selected[a] = min(unary, key=lambda w: (len(w), words.index(w)))
    rest = [w for w in words if w not in set(selected.values())]
    return math.prod(len(w) for w in selected.values()) ** len(rest)


class Algebra(Workload):
    """Normal-form construction in `dpl`, `progressions` and `regularity`."""

    name = "algebra"
    # (alphabet, count, cost low, cost high) per stratum
    ITER = [(A, 6, 1, ITER_CAP), (AB, 8, 6, 24), (AB, 8, 25, 60), (AB, 6, 61, ITER_CAP),
            (ABC, 8, 6, 24), (ABC, 8, 25, 60), (ABC, 6, 61, ITER_CAP)]
    SHUFFLE = [(AB, 10, 10, 40), (AB, 6, 41, SHUFFLE_CAP), (ABC, 10, 10, 40),
               (ABC, 6, 41, SHUFFLE_CAP)]
    INTERSECT = [(AB, 12, 36, 144), (ABC, 12, 36, 144)]
    PROJECT = [(AB, 10), (ABC, 14)]
    INVERSE = [(A, AB, 8), (A, ABC, 8), (AB, ABC, 10)]
    GENERATORS = [(AB, 12, 1, 20), (ABC, 8, 1, 20), (ABC, 8, 21, GEN_CAP)]
    REPRESENTATION = [(AB, 10, 1, 16), (AB, 6, 17, COEFF_CAP), (ABC, 8, 1, 16), (ABC, 6, 17, COEFF_CAP)]

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.shape
        shapes = []
        for al, n, lo, hi in self.ITER:
            for _ in range(n):
                u = _draw(rng, lambda: rand_union(rng, al, rng.randint(1, 3), 3, 4),
                          _iter_cap, lo, hi, "iterated")
                shapes.append(("iterated", (u,)))
        for al, n, lo, hi in self.SHUFFLE:
            for _ in range(n):
                pair = _draw(rng, lambda: (rand_union(rng, al, rng.randint(1, 3), 3, 4),
                                           rand_union(rng, al, rng.randint(1, 3), 3, 4)),
                             _shuffle_cap, lo, hi, "shuffle")
                shapes.append(("shuffle", pair))
        for al, n, lo, hi in self.INTERSECT:
            for _ in range(n):
                pair = _draw(rng, lambda: (rand_union(rng, al, rng.randint(6, 12), 4, 6),
                                           rand_union(rng, al, rng.randint(6, 12), 4, 6)),
                             lambda p: len(p[0].terms) * len(p[1].terms), lo, hi, "intersect")
                shapes.append(("intersect", pair))
        for al, n in self.PROJECT:
            for _ in range(n):
                u = rand_union(rng, al, rng.randint(10, 30), 4, 5)
                keep = tuple(sorted(rng.sample(al.letters, rng.randint(1, len(al) - 1))))
                shapes.append(("project", (u, keep)))
        for sub, full, n in self.INVERSE:
            for _ in range(n):
                shapes.append(("inverse", (rand_union(rng, sub, rng.randint(10, 30), 4, 5), full)))
        for al, n, lo, hi in self.GENERATORS:
            for _ in range(n):
                e = _draw(rng, lambda: self._gen_expr(al, 3), _gen_cap, lo, hi, "generators")
                shapes.append(("generators", (e, al)))
        for al, n, lo, hi in self.REPRESENTATION:
            for _ in range(n):
                lang = _draw(rng, lambda: self._finite_lang(al), coeff_vectors, lo, hi,
                             "representation")
                shapes.append(("representation", (lang,)))
        for kind, args in shapes:
            args = self._vary(kind, args)
            self.cases.append(Case(kind, args, f"{kind} {self._describe(kind, args)}"))
        self._shuffle()

    def _vary(self, kind, args):
        rng = self.rng
        if kind in ("iterated", "shuffle", "intersect"):
            sigma = letter_map(rng, args[0].alphabet.letters)
            return tuple(rename_union(u, sigma) for u in args)
        if kind == "project":
            u, keep = args
            sigma = letter_map(rng, u.alphabet.letters)
            return rename_union(u, sigma), tuple(sorted(sigma[a] for a in keep))
        if kind == "inverse":
            u, full = args
            return rename_union(u, letter_map(rng, u.alphabet.letters)), full
        if kind == "generators":
            e, al = args
            return _rename_gen(e, letter_map(rng, al.letters)), al
        (lang,) = args
        sigma = str.maketrans(letter_map(rng, lang.alphabet.letters))
        return (FiniteLang.of(lang.alphabet, [w.translate(sigma) for w in lang.words]),)

    @staticmethod
    def _describe(kind, args) -> str:
        if kind == "shuffle":
            return " <> ".join(map(fmt_union, args))
        if kind == "intersect":
            return " & ".join(map(fmt_union, args))
        if kind == "project":
            return f"{fmt_union(args[0])} -> {''.join(args[1])}"
        if kind == "inverse":
            return f"{fmt_union(args[0])} -> {''.join(args[1].letters)}"
        if kind == "generators":
            return f"{''.join(args[1].letters)}:{fmt_gen(args[0])}"
        if kind == "representation":
            return f"{''.join(args[0].alphabet.letters)}:{{{','.join(args[0].words)}}}"
        return fmt_union(args[0])

    def _gen_expr(self, al, depth):
        rng = self.shape
        if depth == 0 or rng.random() < 0.3:
            letter = rng.choice(al.letters)
            pick = rng.randrange(4)
            if pick == 0:
                return Fcount(letter, rng.randint(0, 4))
            if pick == 1:
                n = rng.randint(2, 5)
                return Fmod(letter, rng.randrange(n), n)
            letters = frozenset(rng.sample(al.letters, rng.randint(1, len(al))))
            return GammaStar(letters) if pick == 2 else GammaPlus(letters)
        parts = tuple(self._gen_expr(al, depth - 1) for _ in range(rng.randint(2, 3)))
        return GenIntersect(parts) if rng.random() < 0.5 else GenUnion(parts)

    def _finite_lang(self, al):
        rng = self.shape
        occurring = rng.sample(al.letters, rng.randint(2, len(al)))
        words = [a * rng.randint(1, 3) for a in sorted(occurring)]
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(2, 4)
            words.append("".join(rng.choice(occurring) for _ in range(length)))
        if rng.random() < 0.3:
            words.append(rng.choice(occurring) * rng.randint(2, 4))
        return FiniteLang.of(al, words)

    def run(self, case: Case, span):
        kind, args = case.kind, case.args
        if kind == "iterated":
            return dpl.dpl_iterated_shuffle(*args)
        if kind == "shuffle":
            return dpl.dpl_shuffle(*args)
        if kind == "intersect":
            return dpl.dpl_intersect(*args)
        if kind == "project":
            return dpl.dpl_project(*args)
        if kind == "inverse":
            return dpl.dpl_inverse_project(*args)
        if kind == "generators":
            return dpl.from_generators(*args)
        return regularity.build_representation(*args)

    def oracle_check(self, case: Case, result) -> None:
        kind, args = case.kind, case.args
        if kind == "project":
            u, keep = args
            sub = u.alphabet.restrict(keep)
            bound = VECTOR_BOUND[len(sub)]
            # a projected vector of sum <= bound lifts to a member whose
            # dropped letters sit at a term's offsets
            slack = max(
                sum(p.offset for a, p in t.progs if a not in keep) for t in u.terms
            )
            wide = _enum(u, bound + slack).vectors
            vectors = frozenset(
                r for v in wide if (r := v.restrict(keep)).total() <= bound
            )
            _same(_enum(result, bound), oracle.VectorSet(sub, vectors, bound), kind)
            return
        if kind == "inverse":
            u, full = args
            bound = VECTOR_BOUND[len(full)]
            inner = _enum(u, bound).vectors
            expected = oracle.predicate_enumerate(
                lambda v: v.restrict(u.alphabet.letters) in inner, full, bound
            )
            _same(_enum(result, bound), expected, kind)
            return
        if kind == "generators":
            e, al = args
            bound = VECTOR_BOUND[len(al)]
            expected = oracle.predicate_enumerate(lambda v: _gen_holds(e, v), al, bound)
            _same(_enum(result, bound), expected, kind)
            return
        if kind == "representation":
            (lang,) = args
            bound = VECTOR_BOUND[len(lang.alphabet)]
            base = frozenset(
                v for w in lang.words if (v := parikh(w, lang.alphabet)).total() <= bound
            )
            expected = oracle.closure_under_addition(
                oracle.VectorSet(lang.alphabet, base, bound), bound
            )
            _same(_enum(result, bound), expected, kind)
            return
        u1 = args[0]
        bound = VECTOR_BOUND[len(u1.alphabet)]
        e1 = _enum(u1, bound)
        if kind == "iterated":
            expected = oracle.closure_under_addition(e1, bound)
        elif kind == "shuffle":
            expected = oracle.vector_sums(e1, _enum(args[1], bound), bound)
        else:
            expected = oracle.VectorSet(
                u1.alphabet, e1.vectors & _enum(args[1], bound).vectors, bound
            )
        _same(_enum(result, bound), expected, kind)

    @staticmethod
    def out_terms(result) -> int:
        return len(result.terms)


# --- automata --------------------------------------------------------------


def grid_bound(u: DplUnion) -> int:
    """prod (T_a + P_a): states of the count-collapse grid, an upper bound on
    the minimal complete DFA of `u`."""
    size = 1
    for a in u.alphabet:
        offsets = [t.prog(a).offset for t in u.terms if t.prog(a)]
        threshold = max(offsets, default=0)
        if any(t.prog(a) is None for t in u.terms):
            threshold = max(threshold, 1)
        size *= threshold + _lcm(t.prog(a).period for t in u.terms if t.prog(a))
    return size


def counter_bound(u: DplUnion) -> int:
    """prod (k + p) over the per-term counters of the compiled product."""
    return math.prod(p.offset + p.period for t in u.terms for _, p in t.progs)


def extract_tuples(states: int, letters: int) -> int:
    """Count vectors of sum <= 2 (states + 1) that dfa_to_dpl verifies."""
    return math.comb(2 * (states + 1) + letters, letters)


def _letter_maps(m) -> dict:
    table = {(q, a): r for q, a, r in m.delta}
    return {a: [table.get((q, a)) for q in range(m.n_states)] for a in m.alphabet}


def _expected_report(m) -> dict:
    """Predicates of a complete commutative DFA from its letter maps: aperiodic
    when iterating each letter map ends in fixed points, permutation when every
    letter map is a bijection."""
    maps = _letter_maps(m)
    aperiodic = True
    for f in maps.values():
        for q in range(m.n_states):
            seen = []
            while q not in seen:
                seen.append(q)
                q = f[q]
            if f[q] != q:
                aperiodic = False
    permutation = all(
        None not in f and len(set(f)) == m.n_states for f in maps.values()
    )
    return {"commutative": True, "aperiodic": aperiodic, "permutation": permutation,
            "stateCount": m.n_states, "complete": True}


def _all_words(alphabet: Alphabet, bound: int):
    for n in range(bound + 1):
        for letters in product(alphabet.letters, repeat=n):
            yield "".join(letters)


class Automata(Workload):
    """Compile, minimize, classify, read and extract small unions."""

    name = "automata"
    # (alphabet, count, lowest N, highest N) of F(a, N) families
    THRESHOLD = [(A, 8, 40, 120), (AB, 12, 4, 40)]
    # strata on the grid bound; EXTRACT_TUPLE_CAP keeps it <= 42 over ab
    # and <= 12 over abc
    UNIONS = [(AB, 26, 1, 12), (AB, 18, 13, 42), (ABC, 22, 1, 6), (ABC, 16, 7, 12)]

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.shape
        shapes = []
        for al, n, lo, hi in self.THRESHOLD:
            for _ in range(n):
                # at least N letters a, the others free
                progs = {x: Progression(0, 1) for x in al}
                progs["a"] = Progression(rng.randint(lo, hi), 1)
                shapes.append(DplUnion.of(al, [DiagonalPeriodic.make(al, progs)]))
        for al, n, lo, hi in self.UNIONS:
            for _ in range(n):
                shapes.append(_draw(rng, lambda: rand_union(rng, al, rng.randint(1, 2),
                                                            rng.choice((1, 2, 4, 10)),
                                                            rng.choice((1, 2, 3, 8))),
                                    self._cost, lo, hi, "union"))
        for u in shapes:
            if self._cost(u) > 10 ** 6:
                raise RuntimeError("threshold case over the extraction cap")
            # letters are not renamed here: dfa_to_dpl's cost depends on the
            # letter order by up to 1.5x.  Word lengths are part of the shape.
            lengths = [rng.randint(0, ACCEPT_WORD_MAX) for _ in range(ACCEPT_READS)]
            words = tuple(
                "".join(self.rng.choice(u.alphabet.letters) for _ in range(n))
                for n in lengths
            )
            desc = f"chain {fmt_union(u)} reads {','.join(words)}"
            self.cases.append(Case("chain", (u, words), desc))
        self._shuffle()

    @staticmethod
    def _cost(u: DplUnion) -> int:
        # out of every stratum when a cap other than the grid's is exceeded
        if counter_bound(u) > COUNTER_CAP:
            return 10 ** 9
        grid = grid_bound(u)
        if extract_tuples(grid, len(u.alphabet)) > EXTRACT_TUPLE_CAP:
            return 10 ** 9
        return grid

    def run(self, case: Case, span):
        u, words = case.args
        d = automata.dpl_to_dfa(u)
        m = automata.minimize(d)
        rep = automata.report(m)
        with span("automata.accepts"):
            reads = tuple(m.accepts(w) for w in words)
        extracted = automata.dfa_to_dpl(m)
        return d, m, rep, reads, extracted

    def oracle_check(self, case: Case, result) -> None:
        u, words = case.args
        d, m, rep, reads, extracted = result
        al = u.alphabet
        member = lambda v: dpl_union_member(v, u)
        expected = set(oracle.word_language(member, al, WORD_BOUND[len(al)]))
        for name, machine in (("compiled", d), ("minimized", m)):
            got = {w for w in _all_words(al, WORD_BOUND[len(al)]) if machine.accepts(w)}
            if got != expected:
                raise Mismatch(f"{name} DFA language differs on {sorted(got ^ expected)[:3]}")
        if rep.to_dict() != _expected_report(m):
            raise Mismatch(f"report {rep.to_dict()} != {_expected_report(m)}")
        for w, got in zip(words, reads):
            if got != member(parikh(w, al)):
                raise Mismatch(f"accepts({w!r}) = {got}")
        bound = VECTOR_BOUND[len(al)]
        _same(_enum(extracted, bound), _enum(u, bound), "extraction")

    @staticmethod
    def out_terms(result) -> int:
        return len(result[4].terms)


# --- queries ---------------------------------------------------------------
#
# Expressions are built as small tuples, rendered to text for the CLI and
# given Parikh semantics here, independently of exprlang and cli.eval_expr.
# Iterated-shuffle operands are permutation closed (perm(...), unary words,
# letter sets, F(...)), where Parikh semantics and word semantics agree.

APERIODIC_TEMPLATES = (
    # acceptance criterion 10, items 3 and 4, and two decided variants
    "sh*(perm(ab) | perm(c) <> {a,b}* | perm(abb) <> {a,b}*)",
    "sh*(perm(ab) | perm(c) <> {a,b}* | perm(abb) <> {a}* | perm(bb))",
    "sh*(perm(ab) | perm(c) <> {a,b}* | perm(aab) <> {a,b}*)",
    "sh*(perm(abc) | perm(c) <> {a,b}*)",
)


def render(e) -> str:
    tag = e[0]
    if tag in ("perm", "word"):
        return f"perm({e[1]})" if tag == "perm" else e[1]
    if tag == "F":
        return f"F({e[1]},{e[2]})"
    if tag == "Fm":
        return f"F({e[1]},{e[2]},{e[3]})"
    if tag in ("star", "plus"):
        return "{" + ",".join(e[1]) + "}" + ("*" if tag == "star" else "+")
    if tag == "sh":
        return f"sh*({render(e[1])})"
    if tag == "text":
        return e[1]
    op = {"union": " | ", "inter": " & ", "shuf": " <> "}[tag]
    return "(" + op.join(render(p) for p in e[1]) + ")"


def rename(e, sigma: dict):
    """The expression with its letters renamed by `sigma`."""
    tag = e[0]
    if tag in ("perm", "word"):
        return (tag, "".join(sorted(sigma[a] for a in e[1])))
    if tag == "F":
        return (tag, sigma[e[1]], e[2])
    if tag == "Fm":
        return (tag, sigma[e[1]], e[2], e[3])
    if tag in ("star", "plus"):
        return (tag, tuple(sorted(sigma[a] for a in e[1])))
    if tag == "sh":
        return (tag, rename(e[1], sigma))
    return (tag, tuple(rename(p, sigma) for p in e[1]))


def semantics(e, al: Alphabet, bound: int) -> frozenset:
    """Parikh vectors of sum <= bound in the language of `e`."""
    tag = e[0]
    if tag in ("perm", "word"):
        v = parikh(e[1], al)
        return frozenset([v] if v.total() <= bound else [])
    if tag == "text":
        return semantics(e[2], al, bound)
    if tag in ("F", "Fm", "star", "plus"):
        return oracle.predicate_enumerate(lambda v: _atom_holds(e, v), al, bound).vectors
    if tag == "union":
        return frozenset().union(*(semantics(p, al, bound) for p in e[1]))
    if tag == "inter":
        return reduce(frozenset.__and__, (semantics(p, al, bound) for p in e[1]))
    if tag == "shuf":
        sets = [oracle.VectorSet(al, semantics(p, al, bound), bound) for p in e[1]]
        return reduce(lambda x, y: oracle.vector_sums(x, y, bound), sets).vectors
    base = oracle.VectorSet(al, semantics(e[1], al, bound), bound)
    return oracle.closure_under_addition(base, bound).vectors


def _atom_holds(e, v: ParikhVector) -> bool:
    tag = e[0]
    if tag == "F":
        return v[e[1]] >= e[2]
    if tag == "Fm":
        return v[e[1]] % e[3] == e[2]
    letters = frozenset(e[1])
    return v.support() <= letters and (tag == "star" or v.total() >= 1)


def _finite_words(e) -> list[str]:
    """The word set of a union of perm(...) and unary words."""
    if e[0] == "union":
        return [w for p in e[1] for w in _finite_words(p)]
    if e[0] == "perm":
        return sorted({"".join(p) for p in permutations(e[1])})
    return [e[1]]


def _aperiodic_expr(template: str, relabel: str):
    text = template.translate(str.maketrans("abc", relabel))
    # the same language written with the oracle's nodes
    body = text[len("sh*("):-1]
    parts = []
    for piece in body.split(" | "):
        factors = []
        for f in piece.split(" <> "):
            if f.startswith("perm("):
                factors.append(("perm", f[5:-1]))
            else:
                factors.append(("star", tuple(sorted(f[1:-2].split(",")))))
        parts.append(factors[0] if len(factors) == 1 else ("shuf", tuple(factors)))
    return ("text", text, ("sh", ("union", tuple(parts))))


def _printed_terms(data: dict) -> int:
    if "periodic" in data:
        return len(data["periodic"]["terms"]) + len(data["exceptional"]["terms"])
    return len(data["terms"])


def _json_member(data: dict):
    """Membership predicate of a printed normal form."""
    if "periodic" in data:
        periodic = dpl_union_from_dict(data["periodic"])
        exceptional = aperiodic_union_from_dict(data["exceptional"])
        return lambda v: dpl_union_member(v, periodic) or union_member(v, exceptional)
    if "terms" in data:
        u = dpl_union_from_dict(data)
        return lambda v: dpl_union_member(v, u)
    raise Mismatch(f"unexpected normal form keys {sorted(data)}")


class Queries(Workload):
    """In-process CLI calls: parse, evaluate, serialize."""

    name = "queries"
    # (command, family, count)
    MIX = [
        ("member", "bool", 36), ("member", "shdpl", 14), ("member", "shfin", 20),
        ("member", "nonreg", 24), ("member", "aperiodic", 6),
        ("normalize", "bool", 22), ("normalize", "shdpl", 12), ("normalize", "shfin", 10),
        ("normalize", "aperiodic", 3),
        ("regular", "shfin", 14), ("regular", "nonreg", 14), ("regular", "aperiodic", 3),
        ("check", "bool", 4), ("check", "shdpl", 3), ("check", "shfin", 3),
        ("dfa", "product", 6), ("report", "product", 6),
    ]
    CHECK_BOUND = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.shape
        # every template under each rotation of abc once: their costs differ
        # tenfold, and by up to 1.5x between renamings, so they are not renamed
        self._aperiodic_pool = [
            (t, r) for t in APERIODIC_TEMPLATES for r in ("abc", "bca", "cab")
        ]
        rng.shuffle(self._aperiodic_pool)
        for command, family, n in self.MIX:
            for _ in range(n):
                al = ABC if family == "aperiodic" else rng.choice([AB, ABC])
                e = getattr(self, "_" + family)(al)
                if family != "aperiodic":
                    e = rename(e, letter_map(self.rng, al.letters))
                argv = [command, "--alphabet", "".join(al.letters)]
                if command == "member":
                    length = rng.randint(0, 14 if len(al) == 2 else 10)
                    argv.append("".join(self.rng.choice(al.letters) for _ in range(length)))
                if command == "dfa":
                    argv.append("--minimize")
                if command == "check":
                    argv += ["--bound", str(self.CHECK_BOUND)]
                argv.append(render(e))
                self.cases.append(Case(command, (argv, e, family, al), " ".join(argv)))
        self._shuffle()

    def _leaf(self, al):
        rng = self.shape
        letter = rng.choice(al.letters)
        pick = rng.randrange(4)
        if pick == 0:
            return ("F", letter, rng.randint(1, 4))
        if pick == 1:
            n = rng.randint(2, 4)
            return ("Fm", letter, rng.randrange(n), n)
        letters = tuple(sorted(rng.sample(al.letters, rng.randint(1, len(al)))))
        return ("star" if pick == 2 else "plus", letters)

    def _bool(self, al):
        rng = self.shape
        parts = []
        for _ in range(rng.randint(2, 3)):
            leaves = tuple(self._leaf(al) for _ in range(rng.randint(1, 2)))
            parts.append(leaves[0] if len(leaves) == 1 else (rng.choice(["inter", "shuf"]), leaves))
        return ("union", tuple(parts)) if rng.random() < 0.6 else ("inter", tuple(parts))

    def _shdpl(self, al):
        rng = self.shape

        def term():
            letters = rng.sample(al.letters, rng.randint(1, 2))
            leaves = []
            for a in sorted(letters):
                n = rng.randint(2, 3)
                leaves.append(("Fm", a, rng.randrange(n), n) if rng.random() < 0.6
                              else ("F", a, rng.randint(1, 2)))
            return leaves[0] if len(leaves) == 1 else ("inter", tuple(leaves))

        terms = tuple(term() for _ in range(rng.randint(1, 2)))
        return ("sh", terms[0] if len(terms) == 1 else ("union", terms))

    def _finite_union(self, al, unary_for):
        rng = self.shape
        parts = [("word", a * rng.randint(1, 2)) for a in unary_for]
        for _ in range(rng.randint(1, 2)):
            mixed = rng.sample(al.letters, 2) + [rng.choice(al.letters)] * rng.randint(0, 1)
            parts.append(("perm", "".join(sorted(mixed))))
        return ("sh", ("union", tuple(parts)))

    def _shfin(self, al):
        # every occurring letter has a unary word: the closure is regular,
        # with the coefficient count capped from the input
        for _ in range(1000):
            e = self._finite_union(al, al.letters)
            if coeff_vectors(FiniteLang.of(al, _finite_words(e[1]))) <= COEFF_CAP:
                return e
        raise RuntimeError("no regular finite union under the coefficient cap")

    def _nonreg(self, al):
        # some letter of a mixed word lacks a unary word
        keep = self.shape.sample(al.letters, self.shape.randint(0, len(al) - 2))
        return self._finite_union(al, sorted(keep))

    def _aperiodic(self, al):
        return _aperiodic_expr(*self._aperiodic_pool.pop())

    def _product(self, al):
        # one constraint per letter on distinct letters: the minimal DFA is
        # the product of the unary ones, so its report is known in advance
        rng = self.shape
        leaves = []
        for a in sorted(rng.sample(al.letters, rng.randint(1, 2))):
            if rng.random() < 0.5:
                leaves.append(("F", a, rng.randint(1, 6)))
            else:
                n = rng.randint(2, 5)
                leaves.append(("Fm", a, rng.randrange(n), n))
        return leaves[0] if len(leaves) == 1 else ("inter", tuple(leaves))

    def run(self, case: Case, span):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(case.args[0]))
        return code, out.getvalue()

    def oracle_check(self, case: Case, result) -> None:
        argv, e, family, al = case.args
        code, text = result
        if code != 0:
            raise Mismatch(f"exit {code} for {' '.join(argv)}")
        command = case.kind
        if command == "member":
            word = argv[3]
            expected = parikh(word, al) in semantics(e, al, len(word))
            if text.strip() != ("true" if expected else "false"):
                raise Mismatch(f"member {word!r}: printed {text.strip()}")
            return
        if command == "check":
            if not text.startswith(f"PASS (bound {self.CHECK_BOUND})"):
                raise Mismatch(f"check printed {text.strip()}")
            return
        data = json.loads(text)
        if command in ("dfa", "report"):
            self._check_product(command, e, al, data)
            return
        if command == "regular":
            if family in ("shfin", "nonreg"):
                words = _finite_words(e[1])
                unary = {w[0] for w in words if len(set(w)) == 1}
                missing = [a for a in al if any(a in w for w in words) and a not in unary]
                if data["regular"] != (not missing):
                    raise Mismatch(f"regular verdict {data['regular']}")
                if missing:
                    if data["witness"] not in missing or data["representation"] is not None:
                        raise Mismatch(f"witness {data['witness']} not among {missing}")
                    return
            elif data["regular"] is not True:
                raise Mismatch("decided closure reported non-regular")
            data = data["representation"]
        bound = VECTOR_BOUND[len(al)] - 2
        got = oracle.predicate_enumerate(_json_member(data), al, bound)
        expected = oracle.VectorSet(al, semantics(e, al, bound), bound)
        _same(got, expected, command)

    def _check_product(self, command, e, al, data):
        leaves = e[1] if e[0] == "inter" else (e,)
        states = math.prod(leaf[2] + 1 if leaf[0] == "F" else leaf[3] for leaf in leaves)
        if command == "report":
            expected = {"commutative": True, "complete": True, "stateCount": states,
                        "aperiodic": all(leaf[0] == "F" for leaf in leaves),
                        "permutation": all(leaf[0] == "Fm" for leaf in leaves)}
            if data != expected:
                raise Mismatch(f"report {data} != {expected}")
            return
        m = dfa_from_dict(data)
        if m.n_states != states:
            raise Mismatch(f"minimal DFA has {m.n_states} states, expected {states}")
        bound = WORD_BOUND[len(al)]
        members = semantics(e, al, bound)
        for w in _all_words(al, bound):
            if m.accepts(w) != (parikh(w, al) in members):
                raise Mismatch(f"dfa accepts({w!r}) is wrong")

    @staticmethod
    def out_terms(result) -> int:
        code, text = result
        if not text.startswith("{"):
            return 0
        data = json.loads(text)
        if "regular" in data:
            data = data["representation"] or {"terms": []}
        if "delta" in data or "stateCount" in data:
            return 0
        return _printed_terms(data)


WORKLOADS = {w.name: w for w in (Algebra, Automata, Queries)}
