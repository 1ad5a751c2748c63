"""DFA back-end.

Compilation of diagonal periodic unions to automata, the commutativity,
aperiodicity and permutation predicates, minimization, the projection
construction for commutative machines, and a verification-gated extraction
back to normal form.  Automata may be incomplete: a missing transition
encodes an exact-zero letter and behaves as an implicit reject.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Optional

from .dpl import DiagonalPeriodic, DplUnion
from .errors import CriterionError, NotInPositiveClassError, SizeGuardError
from .progressions import Progression
from .words import Alphabet

STATE_GUARD_DEFAULT = 250_000


@dataclass(frozen=True)
class Dfa:
    alphabet: Alphabet
    n_states: int
    start: int
    finals: frozenset[int]
    delta: tuple[tuple[int, str, int], ...]

    def __post_init__(self):
        if not 0 <= self.start < self.n_states:
            raise ValueError("start state out of range")
        seen = set()
        for q, a, r in self.delta:
            if not (0 <= q < self.n_states and 0 <= r < self.n_states):
                raise ValueError("transition endpoint out of range")
            if a not in self.alphabet:
                raise ValueError(f"transition letter {a!r} outside alphabet")
            if (q, a) in seen:
                raise ValueError(f"duplicate transition on ({q}, {a!r})")
            seen.add((q, a))
        if not self.finals <= set(range(self.n_states)):
            raise ValueError("final state out of range")

    @classmethod
    def make(
        cls,
        alphabet: Alphabet,
        n_states: int,
        start: int,
        finals: Iterable[int],
        delta: Mapping[tuple[int, str], int],
    ) -> "Dfa":
        triples = tuple(sorted((q, a, r) for (q, a), r in delta.items()))
        return cls(alphabet, n_states, start, frozenset(finals), triples)

    @property
    def transitions(self) -> dict[tuple[int, str], int]:
        return {(q, a): r for q, a, r in self.delta}

    def step(self, q: Optional[int], a: str) -> Optional[int]:
        if q is None:
            return None
        return self.transitions.get((q, a))

    def run(self, w: str) -> Optional[int]:
        q: Optional[int] = self.start
        table = self.transitions
        for a in w:
            if q is None:
                return None
            q = table.get((q, a))
        return q

    def accepts(self, w: str) -> bool:
        return self.run(w) in self.finals

    def is_complete(self) -> bool:
        table = self.transitions
        return all(
            (q, a) in table for q in range(self.n_states) for a in self.alphabet
        )


def complete(d: Dfa) -> Dfa:
    """Add an explicit reject sink for the missing transitions, if any."""
    if d.is_complete():
        return d
    sink = d.n_states
    delta = d.transitions
    for q in range(d.n_states + 1):
        for a in d.alphabet:
            delta.setdefault((q, a), sink)
    return Dfa.make(d.alphabet, d.n_states + 1, d.start, d.finals, delta)


def is_commutative(d: Dfa) -> bool:
    """δ(q, ab) = δ(q, ba) for all states and letter pairs; an undefined
    composite on both sides counts as equal."""
    letters = d.alphabet.letters
    for q in range(d.n_states):
        for i, a in enumerate(letters):
            for b in letters[i + 1 :]:
                if d.step(d.step(q, a), b) != d.step(d.step(q, b), a):
                    return False
    return True


def _letter_maps(d: Dfa) -> dict[str, tuple[int, ...]]:
    c = complete(d)
    return {
        a: tuple(c.transitions[(q, a)] for q in range(c.n_states))
        for a in c.alphabet
    }


def _rho(f: tuple[int, ...]) -> tuple[int, int]:
    """Tail and cycle length of iterated composition of a state map."""
    powers = [tuple(range(len(f)))]
    seen = {powers[0]: 0}
    g = powers[0]
    while True:
        g = tuple(f[x] for x in g)
        if g in seen:
            tail = seen[g]
            return tail, len(powers) - tail
        seen[g] = len(powers)
        powers.append(g)


def is_aperiodic(d: Dfa) -> bool:
    """Per-letter f^n = f^{n+1} check.  Only valid for commutative machines,
    where aperiodicity reduces to the letter actions."""
    if not is_commutative(d):
        raise CriterionError("aperiodicity check requires a commutative automaton")
    return all(cycle == 1 for _, cycle in map(_rho, _letter_maps(d).values()))


def is_permutation(d: Dfa) -> bool:
    table = d.transitions
    for a in d.alphabet:
        image = [table.get((q, a)) for q in range(d.n_states)]
        if None in image or len(set(image)) != d.n_states:
            return False
    return True


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
    commutative = is_commutative(d)
    return AutomatonReport(
        commutative=commutative,
        aperiodic=is_aperiodic(d) if commutative else False,
        permutation=is_permutation(d),
        state_count=d.n_states,
        complete=d.is_complete(),
    )


# --- compilation ----------------------------------------------------------


def _term_counters(t: DiagonalPeriodic) -> dict[str, tuple[int, int, int]]:
    """Letter -> (slot, k, p) of the term's counters; p = 0 marks an exact count k."""
    counts = {a: (p.offset, p.period) for a, p in t.progs}
    counts.update((a, (c, 0)) for a, c in t.exact)
    letters = [a for a in t.alphabet if a in counts]
    return {a: (i, *counts[a]) for i, a in enumerate(letters)}


def _term_step(
    counters: dict[str, tuple[int, int, int]], state: Optional[tuple[int, ...]], a: str
) -> Optional[tuple[int, ...]]:
    """Advance the letter's counter by one, wrapping k+p-1 back to k; the
    term dies on a letter without a counter or past an exact count."""
    if state is None or a not in counters:
        return None
    i, k, p = counters[a]
    s = state[i]
    if p == 0:
        if s == k:
            return None
        s += 1
    else:
        s = s + 1 if s < k + p - 1 else k
    return state[:i] + (s,) + state[i + 1 :]


def _term_accepts(
    counters: dict[str, tuple[int, int, int]], state: Optional[tuple[int, ...]]
) -> bool:
    if state is None:
        return False
    return all(
        s == k if p == 0 else s >= k and (s - k) % p == 0
        for s, (_, k, p) in zip(state, counters.values())
    )


def dpl_to_dfa(u: DplUnion, guard: int = STATE_GUARD_DEFAULT) -> Dfa:
    """Product of per-term unary counters with disjunctive acceptance.

    Each term contributes one capped counter per support letter (advance by
    one, wrap k+p-1 back to k) and one per letter with a nonzero exact count
    (dead past that count); any other letter kills that term's component.
    States are numbered in BFS discovery order.
    """
    counters = [_term_counters(t) for t in u.terms]
    start = tuple(tuple(0 for _ in c) for c in counters)
    number: dict[tuple, int] = {start: 0}
    order = [start]
    delta: dict[tuple[int, str], int] = {}
    frontier = [start]
    while frontier:
        state = frontier.pop(0)
        for a in u.alphabet:
            nxt = tuple(
                _term_step(c, s, a) for c, s in zip(counters, state)
            )
            if nxt not in number:
                if len(number) >= guard:
                    raise SizeGuardError(
                        f"automaton guard exceeded: more than {guard} states"
                    )
                number[nxt] = len(number)
                order.append(nxt)
                frontier.append(nxt)
            delta[(number[state], a)] = number[nxt]
    finals = {
        number[state]
        for state in order
        if any(_term_accepts(c, s) for c, s in zip(counters, state))
    }
    return Dfa.make(u.alphabet, len(number), 0, finals, delta)


def minimize(d: Dfa) -> Dfa:
    """Minimal complete DFA: complete with a sink, drop unreachable states,
    merge Nerode-equivalent states by partition refinement, and renumber in
    BFS order from the start state."""
    c = complete(d)
    table = c.transitions
    reachable = [c.start]
    seen = {c.start}
    i = 0
    while i < len(reachable):
        q = reachable[i]
        i += 1
        for a in c.alphabet:
            r = table[(q, a)]
            if r not in seen:
                seen.add(r)
                reachable.append(r)

    block = {q: (q in c.finals) for q in reachable}
    while True:
        signature = {
            q: (block[q], tuple(block[table[(q, a)]] for a in c.alphabet))
            for q in reachable
        }
        fresh = {sig: n for n, sig in enumerate(sorted(set(signature.values()), key=repr))}
        new_block = {q: fresh[signature[q]] for q in reachable}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    number = {block[c.start]: 0}
    order = [block[c.start]]
    representative = {block[q]: q for q in reversed(reachable)}
    i = 0
    while i < len(order):
        b = order[i]
        i += 1
        q = representative[b]
        for a in c.alphabet:
            nb = block[table[(q, a)]]
            if nb not in number:
                number[nb] = len(number)
                order.append(nb)
    delta = {
        (number[b], a): number[block[table[(representative[b], a)]]]
        for b in order
        for a in c.alphabet
    }
    finals = {number[block[q]] for q in reachable if q in c.finals}
    return Dfa.make(c.alphabet, len(number), 0, finals, delta)


def project_automaton(d: Dfa, keep: Iterable[str]) -> Dfa:
    """Projection for commutative machines: keep only transitions on the
    retained letters, and make a state final when some word over the dropped
    letters leads from it to a final state."""
    if not is_commutative(d):
        raise CriterionError("projection construction requires a commutative automaton")
    keep = set(keep)
    sub = d.alphabet.restrict(keep)
    dropped = [a for a in d.alphabet if a not in keep]
    table = d.transitions

    can_finish = set(d.finals)
    changed = True
    while changed:
        changed = False
        for q in range(d.n_states):
            if q in can_finish:
                continue
            if any(table.get((q, a)) in can_finish for a in dropped):
                can_finish.add(q)
                changed = True

    number = {d.start: 0}
    order = [d.start]
    delta: dict[tuple[int, str], int] = {}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for a in sub:
            r = table.get((q, a))
            if r is None:
                continue
            if r not in number:
                number[r] = len(number)
                order.append(r)
            delta[(number[q], a)] = number[r]
    finals = {number[q] for q in order if q in can_finish}
    return Dfa.make(sub, len(order), 0, finals, delta)


# --- extraction back to normal form ---------------------------------------


def _accepted_rep(d: Dfa, reps: dict[str, tuple[int, int]]):
    """Acceptance of a count vector via the canonical word, with each count
    collapsed onto the tail-plus-cycle representative of its letter."""
    table = complete(d).transitions

    def collapse(a: str, n: int) -> int:
        tail, cycle = reps[a]
        return n if n < tail else tail + (n - tail) % cycle

    def accepted(counts: tuple[int, ...]) -> bool:
        q = d.start
        for a, n in zip(d.alphabet, counts):
            for _ in range(collapse(a, n)):
                q = table[(q, a)]
        return q in d.finals

    return accepted


def dfa_to_dpl(d: Dfa, bound: Optional[int] = None) -> DplUnion:
    """Extract a diagonal periodic union from a commutative DFA whose
    language lies in the positive class, and verify it by bounded word
    enumeration.  Inputs outside the class are rejected, either during
    synthesis (no progression fits an accepted point) or at verification.
    """
    if not is_commutative(d):
        raise CriterionError("extraction requires a commutative automaton")
    m = minimize(d)
    if bound is None:
        bound = 2 * (m.n_states + 1)
    maps = _letter_maps(m)
    reps = {a: _rho(maps[a]) for a in m.alphabet}
    accepted = _accepted_rep(m, reps)

    grid = [range(sum(reps[a])) for a in m.alphabet]
    total_grid = math.prod(len(r) for r in grid)
    if total_grid > 100_000:
        raise SizeGuardError(f"extraction grid too large: {total_grid} points")

    def term_ok(progs: dict[str, Progression]) -> bool:
        # exact containment check: beyond tail + lcm(cycle, period) both the
        # term and the language are periodic per coordinate
        ranges = []
        for a in m.alphabet:
            tail, cycle = reps[a]
            if a not in progs:
                ranges.append([0])
                continue
            prog = progs[a]
            top = max(tail, prog.offset) + 2 * math.lcm(cycle, prog.period)
            ranges.append(
                [n for n in range(prog.offset, top + 1) if n in prog]
            )
        return all(accepted(counts) for counts in product(*ranges))

    terms: list[DiagonalPeriodic] = []
    for counts in product(*grid):
        if not accepted(counts):
            continue
        choices: list[list[tuple[str, Optional[Progression]]]] = []
        for a, n in zip(m.alphabet, counts):
            tail, cycle = reps[a]
            if n >= tail:
                choices.append([(a, Progression(n, cycle))])
            elif n == 0:
                opts: list[tuple[str, Optional[Progression]]] = [(a, None)]
                opts.extend((a, Progression(0, p)) for p in range(1, tail + cycle + 1))
                choices.append(opts)
            else:
                choices.append(
                    [(a, Progression(n, p)) for p in range(1, tail + cycle + 1)]
                )
        for combo in product(*choices):
            progs = {a: prog for a, prog in combo if prog is not None}
            if term_ok(progs):
                terms.append(DiagonalPeriodic.make(m.alphabet, progs))
                break
        else:
            raise NotInPositiveClassError(
                f"no diagonal periodic term fits the accepted point {counts}"
            )

    union = DplUnion.of(m.alphabet, terms)
    got = dpl_to_dfa(union)
    # both machines are commutative, so one canonical word per count vector
    # covers every word up to the bound
    def count_tuples(k: int, budget: int):
        if k == 0:
            yield ()
            return
        for n in range(budget + 1):
            for rest in count_tuples(k - 1, budget - n):
                yield (n,) + rest

    for counts in count_tuples(len(m.alphabet), bound):
        w = "".join(a * n for a, n in zip(m.alphabet, counts))
        if m.accepts(w) != got.accepts(w):
            raise NotInPositiveClassError(
                f"not in positive class (at tested bound {bound}): "
                f"extraction disagrees on {w!r}"
            )
    return union


# --- serialization --------------------------------------------------------


def dfa_to_dict(d: Dfa) -> dict:
    return {
        "alphabet": list(d.alphabet.letters),
        "states": d.n_states,
        "start": d.start,
        "finals": sorted(d.finals),
        "delta": [[q, a, r] for q, a, r in d.delta],
    }


def dfa_to_json(d: Dfa) -> str:
    return json.dumps(dfa_to_dict(d), sort_keys=True)


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
