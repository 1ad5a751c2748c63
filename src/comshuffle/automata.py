"""DFA back-end.

Compilation of diagonal periodic unions to automata, the commutativity,
aperiodicity and permutation predicates, minimization, the projection
construction for commutative machines, and an extraction back to normal form
that is exact by construction.  A DFA is stored as one transition row per
letter; the sorted `(state, letter, next)` triples of the JSON and DOT output
are derived from the rows.  Automata may be incomplete: a missing transition
encodes an exact-zero letter and behaves as an implicit reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import and_
from typing import Iterable, Mapping, Optional, Sequence

from .dpl import CountSet, DiagonalPeriodic, DplUnion, collapse, count_set_subset, grid, in_count_set
from .errors import CriterionError, NotInPositiveClassError, SizeGuardError
from .progressions import Progression
from .words import Alphabet

STATE_GUARD_DEFAULT = 250_000
EXTRACT_GRID_GUARD = 100_000

Row = tuple[Optional[int], ...]


@dataclass(frozen=True)
class Dfa:
    """`rows[i][q]` is the successor of state q on the i-th letter, None
    where the transition is missing; `delta` derives the triples of the JSON
    and DOT output from them.  Rows are built as `tuple([...])`: built from
    generators, they raised the automata bench's peak RSS by 8%.

    `run` and `accepts` read a word through the bare rows.  The analysis the
    predicates, the projection and the extraction share, `commutative` and
    the per-letter `lines`, is computed once per DFA object, on first use."""

    alphabet: Alphabet
    n_states: int
    start: int
    finals: frozenset[int]
    rows: tuple[Row, ...]
    # letter -> row, a view of `rows` for reading words
    table: dict[str, Row] = field(init=False, compare=False, repr=False)
    # set on the minimal DFAs that `minimize` and `dpl_to_dfa` return;
    # `minimize` returns a marked DFA unchanged
    minimal: bool = field(init=False, default=False, compare=False)

    def __post_init__(self):
        n = self.n_states
        if not 0 <= self.start < n:
            raise ValueError("start state out of range")
        targets = set(range(n))
        if not self.finals <= targets:
            raise ValueError("final state out of range")
        if len(self.rows) != len(self.alphabet):
            raise ValueError("one transition row per letter expected")
        targets.add(None)
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"transition row of length {len(row)}, expected {n}")
            if not targets.issuperset(row):
                raise ValueError("transition endpoint out of range")
        object.__setattr__(self, "table", dict(zip(self.alphabet.letters, self.rows)))

    @classmethod
    def make(
        cls,
        alphabet: Alphabet,
        n_states: int,
        start: int,
        finals: Iterable[int],
        delta: Mapping[tuple[int, str], int],
    ) -> "Dfa":
        """The DFA of a `(state, letter) -> next` mapping, for input from
        outside; an absent key is a missing transition."""
        rows = {a: [None] * n_states for a in alphabet}
        for (q, a), r in delta.items():
            if a not in rows:
                raise ValueError(f"transition letter {a!r} outside alphabet")
            if not 0 <= q < n_states:  # a negative q would index from the end
                raise ValueError("transition endpoint out of range")
            rows[a][q] = r
        return cls(alphabet, n_states, start, frozenset(finals),
                   tuple([tuple(row) for row in rows.values()]))

    @property
    def delta(self) -> tuple[tuple[int, str, int], ...]:
        """The transitions as sorted `(state, letter, next)` triples."""
        return tuple(sorted([(q, a, r) for a, row in self.table.items()
                             for q, r in enumerate(row) if r is not None]))

    def run(self, w: str) -> Optional[int]:
        """The state w leads to, or None when it leaves the DFA: a letter
        outside the alphabet (KeyError), or a step from a missing transition
        (TypeError, as the row is indexed by None).  A missing transition on
        the last letter yields None from the row itself."""
        q = self.start
        table = self.table
        try:
            for a in w:
                q = table[a][q]
        except (KeyError, TypeError):
            return None
        return q

    def accepts(self, w: str) -> bool:
        return self.run(w) in self.finals

    def is_complete(self) -> bool:
        return all(None not in row for row in self.rows)

    @cached_property
    def commutative(self) -> bool:
        """δ(q, ab) = δ(q, ba) for all states and letter pairs; an undefined
        composite on both sides counts as equal."""
        rows = self.rows
        for i, fa in enumerate(rows):
            for fb in rows[i + 1 :]:
                for x, y in zip(fa, fb):
                    if (None if x is None else fb[x]) != (None if y is None else fa[y]):
                        return False
        return True

    @cached_property
    def lines(self) -> tuple[tuple[int, int], ...]:
        """The tail and cycle (`_rho`) of each letter's row in the completed
        DFA, in alphabet order."""
        return tuple([_rho(row) for row in complete(self).rows])


def complete(d: Dfa) -> Dfa:
    """Add an explicit reject sink for the missing transitions, if any."""
    if d.is_complete():
        return d
    sink = d.n_states
    rows = tuple([
        tuple([sink if r is None else r for r in row]) + (sink,) for row in d.rows
    ])
    return Dfa(d.alphabet, sink + 1, d.start, d.finals, rows)


def is_commutative(d: Dfa) -> bool:
    """`Dfa.commutative`, computed once per DFA."""
    return d.commutative


def _rho(f: tuple[int, ...]) -> tuple[int, int]:
    """Tail and cycle length of iterated composition of a state map: the
    least t and c >= 1 with f^t = f^(t+c).  The tail is the longest path
    onto a cycle and the cycle is the lcm of the cycle lengths."""
    depth = [-1] * len(f)  # distance to the cycle, once known
    tail, cycle = 0, 1
    for s in range(len(f)):
        if depth[s] >= 0:
            continue
        path: dict[int, int] = {}  # state -> position on the current walk
        q = s
        while depth[q] < 0 and q not in path:
            path[q] = len(path)
            q = f[q]
        walk = list(path)
        if depth[q] < 0:  # the walk closed a new cycle at q
            entry = path[q]
            cycle = math.lcm(cycle, len(walk) - entry)
            for x in walk[entry:]:
                depth[x] = 0
            walk = walk[:entry]
        d = depth[q]
        for x in reversed(walk):
            d += 1
            depth[x] = d
        tail = max(tail, d)
    return tail, cycle


def is_aperiodic(d: Dfa) -> bool:
    """Per-letter f^n = f^{n+1} check.  Only valid for commutative machines,
    where aperiodicity reduces to the letter actions."""
    if not d.commutative:
        raise CriterionError("aperiodicity check requires a commutative automaton")
    return all(cycle == 1 for _, cycle in d.lines)


def is_permutation(d: Dfa) -> bool:
    return all(None not in row and len(set(row)) == d.n_states for row in d.rows)


@dataclass(frozen=True)
class AutomatonReport:
    commutative: bool
    aperiodic: bool
    permutation: bool
    state_count: int
    complete: bool

    def to_dict(self) -> dict:
        return {
            "commutative": self.commutative,
            "aperiodic": self.aperiodic,
            "permutation": self.permutation,
            "stateCount": self.state_count,
            "complete": self.complete,
        }


def report(d: Dfa) -> AutomatonReport:
    return AutomatonReport(
        commutative=d.commutative,
        aperiodic=d.commutative and is_aperiodic(d),
        permutation=is_permutation(d),
        state_count=d.n_states,
        complete=d.is_complete(),
    )


# --- compilation ----------------------------------------------------------


def dpl_to_dfa(u: DplUnion, guard: int = STATE_GUARD_DEFAULT) -> Dfa:
    """The count grid of u (`grid`) as a DFA, states numbered in BFS order.

    A state is a count vector collapsed per letter (`collapse`).  It carries
    the mask of its live terms, those whose count sets can still hold its
    counts (a progression, or an exact count not yet passed); a state with
    none is the one dead state (key None).  A state is final when some live
    term holds each of its counts.  Along a^n the counts below T_a + P_a - 1
    are distinct live states; if they pass the guard, no table is built.

    The DFA of an empty or one-term union is minimal and marked so; unions
    of more terms are left to `minimize`.  With one term the language is the
    product of its count sets S_a, and from a live state q the words that
    lead to a final state are those whose counts v have q_a + v_a in S_a for
    every letter: a product of nonempty per-letter residuals, since a
    progression is never passed and an exact count not passed is reachable.
    Products of nonempty sets are equal only letter by letter, and the grid
    threshold of one count set is the least one, so each letter's line is
    the minimal unary automaton of S_a and distinct points of it have
    distinct residuals.  So distinct live states are inequivalent; every
    vector past an exact count is the one dead state, whose residual is
    empty; and every state is reachable.  The states are numbered by the
    BFS, over the letters in order, that `minimize` numbers its blocks by.
    """
    def refuse():
        raise SizeGuardError(f"automaton guard exceeded: more than {guard} states",
                             guard="states", limit=guard, observed=guard + 1)

    limits = grid(u)
    if any(top + period - 1 > guard for top, period in limits):
        refuse()
    live: list[list[int]] = []  # per letter and count, terms that can still hold it
    accept: list[list[int]] = []  # per letter and count, terms that hold it
    for (top, period), sets in zip(limits, zip(*(t.sets for t in u.terms))):
        bits = [(1 << j, s) for j, s in enumerate(sets)]
        live.append([sum(b for b, s in bits if isinstance(s, Progression) or s >= n)
                     for n in range(top + period)])
        accept.append([sum(b for b, s in bits if in_count_set(n, s)) for n in range(top + period)])
    mask = (1 << len(u.terms)) - 1
    start = (0,) * len(u.alphabet) if mask else None
    number: dict[Optional[tuple[int, ...]], int] = {start: 0}
    order = [(start, mask)]
    rows: list[list[int]] = [[] for _ in u.alphabet]
    for q, mask in order:
        for i, row in enumerate(rows):
            nxt, m = None, 0
            if q is not None:
                n = collapse(q[i] + 1, limits[i])
                m = mask & live[i][n]
                if m:
                    nxt = q[:i] + (n,) + q[i + 1 :]
            if nxt not in number:
                if len(number) >= guard:
                    refuse()
                number[nxt] = len(number)
                order.append((nxt, m))
            row.append(number[nxt])
    finals = frozenset([
        k for k, (q, mask) in enumerate(order)
        if q is not None and reduce(and_, (a[n] for a, n in zip(accept, q)), mask)
    ])
    d = Dfa(u.alphabet, len(order), 0, finals, tuple([tuple(row) for row in rows]))
    if len(u.terms) <= 1:
        object.__setattr__(d, "minimal", True)
    return d


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA: complete with a sink, merge Nerode-equivalent
    states by Hopcroft's partition refinement, and renumber the blocks in
    BFS order from the start state, which reaches only reachable blocks.
    The result is marked `minimal`; a marked input, such as the compiled DFA
    of a one-term union (`dpl_to_dfa`), is returned unchanged."""
    if d.minimal:
        return d
    c = complete(d)
    block_of = _hopcroft(c)
    number = {block_of[c.start]: 0}
    representative = [c.start]
    for q in representative:
        for row in c.rows:
            b = block_of[row[q]]
            if b not in number:
                number[b] = len(number)
                representative.append(row[q])
    rows = tuple([
        tuple([number[block_of[row[q]]] for q in representative]) for row in c.rows
    ])
    finals = frozenset([i for i, q in enumerate(representative) if q in c.finals])
    m = Dfa(c.alphabet, len(representative), 0, finals, rows)
    object.__setattr__(m, "minimal", True)
    return m


def _hopcroft(c: Dfa) -> list[int]:
    """Block index of each state of the complete DFA `c` under the coarsest
    partition that separates finals from non-finals and is stable under
    every letter (Hopcroft 1971).

    A splitter (block, letter) cuts every block into the states that the
    letter maps into the block and the rest.  Of the two halves of a split,
    only the smaller becomes a new splitter unless the old block is still
    waiting, which bounds the work by O(n |Σ| log n).
    """
    inverse = []
    for row in c.rows:
        pre: list[list[int]] = [[] for _ in row]
        for q, r in enumerate(row):
            pre[r].append(q)
        inverse.append(pre)

    finals = set(c.finals)
    blocks = [b for b in (finals, set(range(c.n_states)) - finals) if b]
    block_of = [0 if q in finals else len(blocks) - 1 for q in range(c.n_states)]
    letters = range(len(inverse))
    waiting = set()
    if len(blocks) == 2:
        smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
        waiting = {(smaller, x) for x in letters}
    while waiting:
        b, x = waiting.pop()
        pre = inverse[x]
        hits: dict[int, list[int]] = {}
        for r in blocks[b]:
            for q in pre[r]:
                hits.setdefault(block_of[q], []).append(q)
        for y, hit in hits.items():
            whole = blocks[y]
            if len(hit) == len(whole):
                continue
            if 2 * len(hit) <= len(whole):
                whole.difference_update(hit)
                part = set(hit)
            else:
                part = whole.difference(hit)
                whole.intersection_update(hit)
            z = len(blocks)
            blocks.append(part)
            for q in part:
                block_of[q] = z
            for x2 in letters:
                if (y, x2) in waiting or len(part) <= len(whole):
                    waiting.add((z, x2))
                else:
                    waiting.add((y, x2))
    return block_of


def project_automaton(d: Dfa, keep: Iterable[str]) -> Dfa:
    """Projection for commutative machines: keep only transitions on the
    retained letters, and make a state final when some word over the dropped
    letters leads from it to a final state."""
    if not d.commutative:
        raise CriterionError("projection construction requires a commutative automaton")
    keep = set(keep)
    sub = d.alphabet.restrict(keep)
    dropped = [d.table[a] for a in d.alphabet if a not in keep]

    can_finish = set(d.finals)
    changed = True
    while changed:
        changed = False
        for q in range(d.n_states):
            if q in can_finish:
                continue
            if any(row[q] in can_finish for row in dropped):
                can_finish.add(q)
                changed = True

    number = {d.start: 0}
    order = [d.start]
    kept = [(d.table[a], []) for a in sub]
    for q in order:
        for row, out in kept:
            r = row[q]
            if r is not None and r not in number:
                number[r] = len(number)
                order.append(r)
            out.append(None if r is None else number[r])
    finals = frozenset([number[q] for q in order if q in can_finish])
    return Dfa(sub, len(order), 0, finals, tuple([tuple(out) for _, out in kept]))


def equivalence_witness(d1: Dfa, d2: Dfa) -> Optional[str]:
    """A shortest word accepted by exactly one of two DFAs over the same
    alphabet, or None when their languages are equal.  Walks the product
    machine breadth first from the pair of start states; a missing
    transition leads to an implicit reject sink (None)."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("equivalence check needs one alphabet")
    rows = [(a, d1.table[a], d2.table[a]) for a in d1.alphabet]
    start = (d1.start, d2.start)
    parent: dict[tuple, Optional[tuple]] = {start: None}
    order = [start]
    for pair in order:
        q, r = pair
        if (q in d1.finals) != (r in d2.finals):
            word = []
            while parent[pair] is not None:
                pair, a = parent[pair]
                word.append(a)
            return "".join(reversed(word))
        for a, row1, row2 in rows:
            nxt = (
                None if q is None else row1[q],
                None if r is None else row2[r],
            )
            if nxt not in parent:
                parent[nxt] = (pair, a)
                order.append(nxt)
    return None


# --- extraction back to normal form ---------------------------------------


def _coordinates(s: CountSet, line: tuple[int, int]) -> Iterable[int]:
    """The counts of the count set s collapsed on a letter's line (`collapse`):
    one for an exact count k, the orbit of collapse(k) under +p for k + pN."""
    if not isinstance(s, Progression):
        return (collapse(s, line),)
    k, p = s
    orbit: dict[int, None] = {}
    n = collapse(k, line)
    while n not in orbit:
        orbit[n] = None
        n = collapse(n + p, line)
    return orbit


def dfa_to_dpl(d: Dfa) -> DplUnion:
    """Extract a diagonal periodic union with no nonzero exact count (the
    positive class) from a commutative DFA, exact by construction.

    In the minimal DFA m, the row f_a of letter a has the tail t_a and cycle
    c_a of `_rho`, so f_a^t_a = f_a^(t_a + c_a) and a^n acts as a^collapse(n)
    on the line (t_a, c_a).  The lines are `m.lines`, computed once per DFA
    object: on a DFA that `minimize` returned, `is_aperiodic` and `report`
    read the same ones, as all three read its `commutative`.  Letters
    commute, so the state a count vector reaches depends only on its
    collapse: a point of the grid of counts < t_a + c_a.  The table `at` holds the state of every point, so a set of
    vectors lies in L(d) exactly when every point it collapses to is final.
    A term collapses to the product of its per-letter coordinates
    (`_coordinates`).

    L(d) is thus a union of collapse classes, one per final point, a count
    being exact below t_a and n + c_a·N from it.  For each final point, in
    grid order, a term holding its class is chosen: n + c_a·N from the tail,
    and below it the count zero, then n + p·N for p = 1 .. t_a + c_a.  The
    first candidate whose points are all final is kept, and a point with
    none raises `NotInPositiveClassError`.  A point whose class a kept term
    already contains is skipped, so no kept term lies in another: an earlier
    one would cover the later point's class, and a later one, whose offsets
    are a later point, cannot hold an earlier point.

    The union is exactly L(d): every kept term lies in L(d) since its points
    are final, and every accepted vector lies in the class of a final point,
    which a kept term contains.
    """
    if not d.commutative:
        raise CriterionError("extraction requires a commutative automaton")
    m = minimize(d)
    lines = m.lines
    sizes = [tail + cycle for tail, cycle in lines]
    total_grid = math.prod(sizes)
    if total_grid > EXTRACT_GRID_GUARD:
        raise SizeGuardError(
            f"extraction grid too large: {total_grid} points",
            guard="extraction_grid",
            limit=EXTRACT_GRID_GUARD,
            observed=total_grid,
        )

    # the state of every point in `product` order: with the first letter's
    # count n, the block of the later letters' points is f^n of the block for 0
    at = [m.start]
    for row, size in zip(reversed(m.rows), reversed(sizes)):
        block, at = at, at[:]
        for _ in range(1, size):
            block = [row[q] for q in block]
            at += block
    final = [q in m.finals for q in at]
    strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]

    def holds(sets: Sequence[CountSet]) -> bool:
        offsets = [[n * stride for n in _coordinates(s, line)]
                   for s, line, stride in zip(sets, lines, strides)]
        return all(final[p] for p in map(sum, product(*offsets)))

    terms: list[DiagonalPeriodic] = []
    for point, counts in enumerate(product(*map(range, sizes))):
        if not final[point]:
            continue
        cls = [n if n < tail else Progression(n, cycle)
               for n, (tail, cycle) in zip(counts, lines)]
        if any(all(map(count_set_subset, cls, t.sets)) for t in terms):
            continue
        choices: list[list[CountSet]] = []
        for n, (tail, cycle) in zip(counts, lines):
            if n >= tail:
                choices.append([Progression(n, cycle)])
            else:
                opts: list[CountSet] = [Progression(n, p) for p in range(1, tail + cycle + 1)]
                choices.append([0] + opts if n == 0 else opts)
        sets = next(filter(holds, product(*choices)), None)
        if sets is None:
            raise NotInPositiveClassError(
                f"no diagonal periodic term fits the accepted point {counts}"
            )
        terms.append(DiagonalPeriodic(m.alphabet, sets))
    return DplUnion.of(m.alphabet, terms)


# --- serialization --------------------------------------------------------


def dfa_to_dict(d: Dfa) -> dict:
    return {
        "alphabet": list(d.alphabet.letters),
        "states": d.n_states,
        "start": d.start,
        "finals": sorted(d.finals),
        "delta": [[q, a, r] for q, a, r in d.delta],
    }


def dfa_from_dict(data: dict) -> Dfa:
    return Dfa.make(
        Alphabet.of(data["alphabet"]),
        data["states"],
        data["start"],
        data["finals"],
        {(q, a): r for q, a, r in data["delta"]},
    )


def dfa_to_dot(d: Dfa) -> str:
    lines = ["digraph dfa {", "  rankdir=LR;", '  start [shape=point, label=""];']
    for q in range(d.n_states):
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  start -> q{d.start};")
    grouped: dict[tuple[int, int], list[str]] = {}
    for q, a, r in d.delta:
        grouped.setdefault((q, r), []).append(a)
    for (q, r), letters in sorted(grouped.items()):
        label = ",".join(sorted(letters))
        lines.append(f'  q{q} -> q{r} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
