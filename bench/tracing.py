"""Spans around the package's layers, recorded from outside the package.

`install` replaces each traced function in every module namespace that holds
it, which is how the package's modules (and the benchmark) look functions up:
`comshuffle.dpl.prog_product` and `comshuffle.progressions.prog_product` are
the same wrapper.  Nothing in the package is edited.

Membership predicates (`dpl_member`, `dpl_union_member`, `union_member`) and
generator functions (`all_vectors`) are not wrapped: the first are called per
count vector and would swamp the trace, the second return before their work
is done.  Their time counts as self time of the calling span.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import Counter
from contextlib import contextmanager

SPAN_KEEP = 100_000  # spans kept for the trace file; aggregates cover all

# (module, function, layer)
TRACED = [
    ("progressions", "prog_intersect", "progressions"),
    ("progressions", "prog_product", "progressions"),
    ("progressions", "crt_solve", "progressions"),
    ("progressions", "normalize_progressions", "progressions"),
    ("dpl", "dpl_union", "dpl"),
    ("dpl", "dpl_intersect", "dpl"),
    ("dpl", "dpl_shuffle", "dpl"),
    ("dpl", "dpl_iterated_shuffle", "dpl"),
    ("dpl", "dpl_project", "dpl"),
    ("dpl", "dpl_inverse_project", "dpl"),
    ("dpl", "dpl_shift", "dpl"),
    ("dpl", "from_generators", "dpl"),
    ("regularity", "build_representation", "regularity"),
    ("regularity", "decide_finite", "regularity"),
    ("regularity", "decide_prefixed", "regularity"),
    ("regularity", "shift_representation", "regularity"),
    ("regularity", "nerode_evidence", "regularity"),
    ("aperiodic", "union_iterated_shuffle", "aperiodic"),
    ("aperiodic", "union_closure_member", "aperiodic"),
    ("aperiodic", "union_shuffle", "aperiodic"),
    ("aperiodic", "union_project", "aperiodic"),
    ("aperiodic", "intervals_to_terms", "aperiodic"),
    ("aperiodic", "term_iterated_shuffle_normal_form", "aperiodic"),
    ("automata", "dpl_to_dfa", "automata.compile"),
    ("automata", "minimize", "automata.minimize"),
    ("automata", "report", "automata.predicates"),
    ("automata", "is_commutative", "automata.predicates"),
    ("automata", "is_aperiodic", "automata.predicates"),
    ("automata", "is_permutation", "automata.predicates"),
    ("automata", "dfa_to_dpl", "automata.extract"),
    ("automata", "project_automaton", "automata.project"),
    ("exprlang", "parse", "exprlang"),
    ("cli", "main", "cli.main"),
    ("cli", "eval_expr", "cli.eval"),
    ("cli", "value_to_dict", "cli.serialize"),
    ("cli", "_canonical_json", "cli.serialize"),
    ("dpl", "dpl_union_to_dict", "cli.serialize"),
    ("aperiodic", "aperiodic_union_to_dict", "cli.serialize"),
    ("automata", "dfa_to_dict", "cli.serialize"),
    ("automata", "dfa_to_dot", "cli.serialize"),
    ("cli", "oracle_set", "oracle"),
    ("oracle", "closure_under_addition", "oracle"),
    ("oracle", "vector_sums", "oracle"),
    ("oracle", "sets_equal", "oracle"),
    ("oracle", "dpl_enumerate", "oracle"),
    ("oracle", "predicate_enumerate", "oracle"),
    ("oracle", "word_language", "oracle"),
]


def _terms(u) -> int:
    return len(u.terms)


def _binary_terms(args, result):
    u1, u2 = args[0], args[1]
    return {"terms_in": _terms(u1) + _terms(u2), "terms_out": _terms(result),
            "pairs": _terms(u1) * _terms(u2)}


def _unary_terms(args, result):
    return {"terms_in": _terms(args[0]), "terms_out": _terms(result)}


def _expr_nodes(e) -> int:
    children = getattr(e, "parts", None) or (
        (e.child,) if hasattr(e, "child") else ()
    )
    return 1 + sum(_expr_nodes(c) for c in children)


def _attrs(coeff_vectors, extract_tuples):
    """Per-function counts, computed from each call's inputs and output."""
    return {
        "dpl_union": _binary_terms,
        "dpl_intersect": _binary_terms,
        "dpl_shuffle": _binary_terms,
        "dpl_iterated_shuffle": _unary_terms,
        "dpl_project": _unary_terms,
        "dpl_inverse_project": _unary_terms,
        "dpl_shift": _unary_terms,
        "from_generators": lambda args, r: {"terms_out": _terms(r)},
        "build_representation": lambda args, r: {
            "coeff_vectors": coeff_vectors(args[0]), "terms_out": _terms(r)},
        "dpl_to_dfa": lambda args, r: {"states": r.n_states},
        "minimize": lambda args, r: {"states": r.n_states},
        "dfa_to_dpl": lambda args, r: {
            "tuples": extract_tuples(args[0].n_states, len(args[0].alphabet))},
        "parse": lambda args, r: {"nodes": _expr_nodes(r[0])},
    }


class Tracer:
    """In-memory spans with self time, plus counts taken at span boundaries."""

    ROOT = "op"
    # span name -> ancestor name: time spent in the first under the second
    NESTED = {"aperiodic.union_closure_member": "aperiodic.union_iterated_shuffle"}

    def __init__(self):
        self.active = False
        self.op = None          # (sequence number, case index) of the current op
        self._next_id = 0
        self._stack = []        # frames: [span id, name, start ns, child ns]
        self.spans = []         # (id, parent id, op seq, case index, name, start, end)
        self.span_count = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()  # "<name>.<attr>" and "<name>.<attr>@top"
        self.nested_ns = Counter()

    def _enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> bool:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        self.span_count += 1
        ancestor = self.NESTED.get(name)
        if ancestor is not None and any(f[1] == ancestor for f in self._stack):
            self.nested_ns[name] += duration
        if len(self.spans) < SPAN_KEEP:
            self.spans.append((span_id, parent[0] if parent else None, *self.op,
                               name, start, end))
        # a call made by the benchmark itself, not by another traced function
        return parent is not None and parent[1] == self.ROOT

    @contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def op_span(self, seq, index):
        self.op = (seq, index)
        self.active = True
        try:
            with self.span(self.ROOT):
                yield
        finally:
            self.active = False

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                top = tracer._exit(frame)
            if attrs is not None:
                for key, value in attrs(args, result).items():
                    tracer.counts[f"{name}.{key}"] += value
                    if top:
                        tracer.counts[f"{name}.{key}@top"] += value
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "case", "name", "start_ns", "end_ns")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


class Patches:
    """The traced functions' wrappers, switchable on and off in place."""

    def __init__(self):
        self.sites = []  # (module, attribute, original, wrapper)

    def switch(self, on: bool) -> None:
        for module, attr, original, wrapper in self.sites:
            setattr(module, attr, wrapper if on else original)


def install(tracer: Tracer, package, coeff_vectors, extract_tuples):
    """Wrap every traced function wherever the package's modules hold it.

    Returns span name -> layer, and the patches (switched on).  Fails if a
    listed function no longer exists, so a rename cannot silently drop a
    layer from the trace.
    """
    import importlib
    import pkgutil

    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m.name}")
        for m in pkgutil.iter_modules(package.__path__)
    ]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    attrs = _attrs(coeff_vectors, extract_tuples)
    layers = {}
    wrappers = {}
    for module, function, layer in TRACED:
        fn = getattr(by_name[module], function)
        name = f"{module}.{function}"
        wrappers[fn] = tracer.wrap(name, fn, attrs.get(function))
        layers[name] = layer
    patches = Patches()
    for m in modules:
        for attr, value in list(vars(m).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                patches.sites.append((m, attr, value, wrappers[value]))
    patches.switch(True)
    return layers, patches


def subsumed_share(unions) -> tuple[int, int]:
    """(terms contained in another single term of the same union, all terms).

    Term t lies in term s when every letter's count set of t lies in that of
    s: a progression via Progression.contains_progression, and an exact zero
    (letter off the support) in a progression with offset 0.
    """
    subsumed = total = 0
    for u in unions:
        terms = [t.prog_dict() for t in u.terms]
        letters = u.alphabet.letters
        for i, t in enumerate(terms):
            total += 1
            for j, s in enumerate(terms):
                if i != j and all(
                    (a not in t and (a not in s or s[a].offset == 0))
                    or (a in t and a in s and s[a].contains_progression(t[a]))
                    for a in letters
                ):
                    subsumed += 1
                    break
    return subsumed, total


def layer_metrics(tracer: Tracer, layers: dict[str, str], passes: int) -> dict:
    """Per-layer values per pass over the case list, plus span counts per
    metric for the integrity check."""

    def names(*layer_names):
        return [n for n, layer in layers.items() if layer in layer_names]

    def ms(span_names):
        return sum(tracer.self_ns[n] for n in span_names) / 1e6 / passes

    def calls(span_names):
        return sum(tracer.calls[n] for n in span_names)

    def count(key):
        return tracer.counts[key] / passes

    prog, dpl_names = names("progressions"), names("dpl")
    reg, aper = names("regularity"), names("aperiodic")
    compile_, minimize = names("automata.compile"), names("automata.minimize")
    compile_states = count("automata.dpl_to_dfa.states@top")
    min_states = count("automata.minimize.states@top")
    dpl_count = lambda attr: sum(count(f"{n}.{attr}") for n in dpl_names)
    # (value, unit, spans behind it)
    table = {
        "progressions.calls": (calls(prog) / passes, "count", prog),
        "progressions.self_ms": (ms(prog), "ms", prog),
        "dpl.calls": (calls(dpl_names) / passes, "count", dpl_names),
        "dpl.self_ms": (ms(dpl_names), "ms", dpl_names),
        "dpl.terms_in": (dpl_count("terms_in"), "count", dpl_names),
        "dpl.terms_out": (dpl_count("terms_out"), "count", dpl_names),
        "dpl.pairs": (dpl_count("pairs"), "count", dpl_names),
        "regularity.calls": (calls(reg) / passes, "count", reg),
        "regularity.self_ms": (ms(reg), "ms", reg),
        "regularity.coeff_vectors": (
            count("regularity.build_representation.coeff_vectors"), "count",
            ["regularity.build_representation"]),
        "regularity.terms_out": (
            count("regularity.build_representation.terms_out"), "count",
            ["regularity.build_representation"]),
        "aperiodic.calls": (calls(aper) / passes, "count", aper),
        "aperiodic.self_ms": (ms(aper), "ms", aper),
        "aperiodic.closure_member_calls": (
            tracer.calls["aperiodic.union_closure_member"] / passes, "count",
            ["aperiodic.union_closure_member"]),
        "aperiodic.verify_ms": (
            tracer.nested_ns["aperiodic.union_closure_member"] / 1e6 / passes, "ms",
            ["aperiodic.union_closure_member"]),
        "automata.compile_ms": (ms(compile_), "ms", compile_),
        "automata.compile_states": (compile_states, "count", compile_),
        "automata.minimize_ms": (ms(minimize), "ms", minimize),
        "automata.min_states": (min_states, "count", minimize),
        "automata.state_ratio": (
            min_states / compile_states if compile_states else 0.0, "share", minimize),
        "automata.predicates_ms": (ms(names("automata.predicates")), "ms",
                                   names("automata.predicates")),
        "automata.accepts_ms": (ms(["automata.accepts"]), "ms", ["automata.accepts"]),
        "automata.extract_ms": (ms(names("automata.extract")), "ms",
                                names("automata.extract")),
        "automata.extract_tuples": (count("automata.dfa_to_dpl.tuples"), "count",
                                    names("automata.extract")),
        "exprlang.parse_ms": (ms(names("exprlang")), "ms", names("exprlang")),
        "exprlang.nodes": (count("exprlang.parse.nodes"), "count", names("exprlang")),
        "cli.eval_self_ms": (ms(names("cli.eval")), "ms", names("cli.eval")),
        "cli.serialize_ms": (ms(names("cli.serialize")), "ms", names("cli.serialize")),
        "oracle.self_ms": (ms(names("oracle")), "ms", names("oracle")),
    }
    return {
        name: (value, unit, calls(span_names))
        for name, (value, unit, span_names) in table.items()
    }

