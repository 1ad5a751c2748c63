"""Closed-loop benchmark of comshuffle on three seeded workloads.

    python3 bench/run.py --workload {algebra,automata,queries,all} --seed N \\
        --seconds S --trace {0,1}

One client, one thread, one process: each operation starts after the previous
one returns.  The run imports the package from `src/` next to this directory,
builds the workload's case list from the seed, and sets up SETUP_REPS times
(fresh import, input generation, 8 warm-up operations) to report the median
set-up time.  It then runs whole passes over the case list until the
operations' own time reaches --seconds.  Every answer is checked against the
oracle outside the timed region; any mismatch, exception or unexpected exit
code makes the run exit 1.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, which record spans around every layer (see
tracing.py), and prints per-layer metrics per pass together with the tracing
overhead.  The last line of standard output is one JSON object; the lines
before it are a readable summary.  See NOTES.md for why each workload exists
and how times are taken.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 5
WORKLOADS = ("algebra", "automata", "queries")
BENCH_MODULES = ("workloads", "tracing")
# Operations and set-up are timed in CPU time of this process.  The loop is
# single-threaded and does no I/O beyond reading the sources, so on an idle
# machine this equals wall time; on a shared one it leaves out the time other
# tenants hold the core.
CLOCK = time.process_time_ns
# A shared machine's speed also drifts by a quarter within seconds (clock
# frequency, contended caches), which CPU time does not remove.  So a fixed
# pure-Python loop is timed right before and right after every timed span,
# and the span is rescaled to the speed at which that loop takes
# CALIBRATION_REF_NS.  The loop is the benchmark's own code: a change to the
# package cannot move it.
CALIBRATION_REF_NS = 300_000


@dataclass(frozen=True)
class _Point:
    k: int
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("period must be positive")


def calibration_ns() -> int:
    """CPU time of a fixed mix of the interpreter work the package does:
    tuple keys in a dict, and small frozen dataclasses built, hashed,
    deduplicated and sorted.  Of the loops tried, this mix tracked the
    workloads' own speed best."""
    start = CLOCK()
    counts: dict = {}
    for i in range(500):
        key = (i & 63, i >> 6)
        counts[key] = counts.get(key, 0) + i
    seen: set = set()
    points = []
    for i in range(60):
        a, b = _Point(i % 7, i % 5 + 1), _Point(i % 3, 2)
        x = _Point(a.k + b.k, max(a.p, b.p))
        if x not in seen:
            seen.add(x)
            points.append(x)
    points.sort(key=lambda q: (q.k, q.p))
    return CLOCK() - start


def timed(fn, *args):
    """Run fn(*args); return (result or None, traceback or None, scaled ns)."""
    before = calibration_ns()
    start = CLOCK()
    try:
        result, error = fn(*args), None
    except Exception:  # an op that raises is a failed op; keep going
        result, error = None, traceback.format_exc()
    elapsed = CLOCK() - start
    after = calibration_ns()
    return result, error, elapsed * CALIBRATION_REF_NS * 2 / (before + after)

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "peak_rss_mb": "MB", "out_terms": "count",
}
# per-layer metric -> the workload its layer should dominate
DOMINANT = {
    "progressions.calls": "algebra", "progressions.self_ms": "algebra",
    "dpl.calls": "algebra", "dpl.self_ms": "algebra", "dpl.terms_in": "algebra",
    "dpl.terms_out": "algebra", "dpl.pairs": "algebra", "dpl.subsumed_share": "algebra",
    "regularity.calls": "algebra", "regularity.self_ms": "algebra",
    "regularity.coeff_vectors": "algebra", "regularity.terms_out": "algebra",
    "aperiodic.calls": "queries", "aperiodic.self_ms": "queries",
    "aperiodic.closure_member_calls": "queries", "aperiodic.verify_ms": "queries",
    "automata.compile_ms": "automata", "automata.compile_states": "automata",
    "automata.minimize_ms": "automata", "automata.min_states": "automata",
    "automata.state_ratio": "automata", "automata.predicates_ms": "automata",
    "automata.accepts_ms": "automata", "automata.extract_ms": "automata",
    "automata.extract_tuples": "automata",
    "exprlang.parse_ms": "queries", "exprlang.nodes": "queries",
    "cli.eval_self_ms": "queries", "cli.serialize_ms": "queries",
    "oracle.self_ms": "queries",
}


def fresh_import():
    """Import the package and the benchmark's modules from source, anew."""
    for name in list(sys.modules):
        if name == "comshuffle" or name.startswith("comshuffle.") or name in BENCH_MODULES:
            del sys.modules[name]
    package = importlib.import_module("comshuffle")
    if not os.path.abspath(package.__file__).startswith(os.path.join(ROOT, "src", "")):
        # an installed copy elsewhere would be measured instead of this checkout
        raise SystemExit(f"comshuffle imported from {package.__file__}, not from {ROOT}/src")
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def set_up(name: str, seed: int):
    """SETUP_REPS timed set-ups; returns the last one and the median time."""
    def one_set_up():
        workloads, tracing = fresh_import()
        workload = workloads.WORKLOADS[name](seed)
        # the warm-up cases run again, and are checked, in the timed passes
        for i in workload.warmup:
            workload.run(workload.cases[i], nullcontext)
        return workloads, tracing, workload

    times = []
    for _ in range(SETUP_REPS):
        done, error, ns = timed(one_set_up)
        if error is not None:
            raise SystemExit(f"set-up failed:\n{error}")
        workloads, tracing, workload = done
        times.append(ns / 1e9)
    return workloads, tracing, workload, statistics.median(times)


class Loop:
    """Runs passes over the case list, timing each operation."""

    def __init__(self, workload, mismatch):
        self.workload = workload
        self.mismatch = mismatch
        self.times_ns: list[list[float]] = [[] for _ in workload.cases]
        self.attempted = 0
        self.failed = 0
        self.out_terms = None
        self.seq = 0

    def run_pass(self, tracer=None) -> float:
        """One pass; returns the pass's scaled operation time in ns."""
        w = self.workload
        busy = 0
        out_terms = 0
        for index, case in enumerate(w.cases):
            self.seq += 1
            if tracer:
                result, error, elapsed = timed(self._traced, tracer, index, case)
            else:
                result, error, elapsed = timed(w.run, case, nullcontext)
            busy += elapsed
            self.times_ns[index].append(elapsed)
            self.attempted += 1
            if error is None:
                try:
                    w.check(index, result)
                    out_terms += w.out_terms(result)
                except self.mismatch as err:
                    error = str(err)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                self.failed += 1
                print(f"FAILED {case.desc}: {error}", file=sys.stderr)
        if self.out_terms is None:
            self.out_terms = out_terms
        return busy

    def _traced(self, tracer, index, case):
        with tracer.op_span(self.seq, index):
            return self.workload.run(case, tracer.span)

    def run_until(self, seconds: float) -> tuple[int, int]:
        """Whole passes until the operations' time reaches `seconds`."""
        passes = busy = 0
        while passes == 0 or busy < seconds * 1e9:
            busy += self.run_pass()
            passes += 1
        return passes, busy


def digest(workload) -> str:
    h = hashlib.sha256()
    for case in workload.cases:
        h.update(case.desc.encode() + b"\n")
    return h.hexdigest()[:16]


def end_to_end(args, workload, loop, setup_s):
    passes, _ = loop.run_until(args.seconds)
    # each case's median over the passes: a pass slowed by another tenant of
    # the machine does not move it
    case_ms = [statistics.median(t) / 1e6 for t in loop.times_ns]
    cuts = statistics.quantiles(case_ms, n=10)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(case_ms) / (sum(case_ms) / 1e3),
        "op_ms_p50": cuts[4],
        "op_ms_p90": cuts[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out_terms": loop.out_terms,
    }
    print(f"# passes {passes}  samples {loop.attempted}: {len(case_ms)} case medians, "
          f"{len(case_ms) - math.ceil(0.9 * len(case_ms))} above p90")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(args, workloads, tracing, workload, loop):
    tracer = tracing.Tracer()
    layers, patches = tracing.install(tracer, sys.modules["comshuffle"],
                                      workloads.coeff_vectors, workloads.extract_tuples)
    # alternate untraced and traced passes over the same cases, so that the
    # overhead compares identical work under the same conditions
    passes = plain_ns = traced_ns = 0
    while passes == 0 or plain_ns < args.seconds / 2 * 1e9:
        patches.switch(False)
        plain_ns += loop.run_pass()
        patches.switch(True)
        traced_ns += loop.run_pass(tracer)
        passes += 1
    table = tracing.layer_metrics(tracer, layers, passes)
    if workload.name == "algebra":
        unions = list(workload.verified.values())
        subsumed, total = tracing.subsumed_share(unions)
        table["dpl.subsumed_share"] = (subsumed / total, "share", total)
    else:
        table["dpl.subsumed_share"] = (0.0, "share", 0)
    # integrity: a layer that records no spans on its own workload means a
    # wrapper is bypassed, so the numbers for it would be silently zero
    dead = [name for name, (_, _, spans) in table.items()
            if DOMINANT[name] == workload.name and spans == 0]
    if dead:
        raise SystemExit(f"trace integrity: no spans for {', '.join(dead)} on {workload.name}")
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.jsonl")
    tracer.write(trace_file)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in table.items()}
    metrics["trace.overhead_share"] = {"value": traced_ns / plain_ns - 1, "unit": "share"}
    print(f"# passes {passes} untraced + {passes} traced, alternating  spans {tracer.span_count} "
          f"(kept {len(tracer.spans)} in {os.path.relpath(trace_file, ROOT)})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, one after another
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    # import from source on every set-up, the same in every checkout
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(OUT_DIR, "no-pycache")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    workloads, tracing, workload, setup_s = set_up(args.workload, args.seed)
    loop = Loop(workload, workloads.Mismatch)
    print(f"# workload {workload.name}  seed {args.seed}  cases {len(workload.cases)}  "
          f"input digest {digest(workload)}")
    if args.trace:
        metrics = per_layer(args, workloads, tracing, workload, loop)
    else:
        metrics = end_to_end(args, workload, loop, setup_s)
    attempted = loop.attempted
    for name, m in metrics.items():
        print(f"# {name:32s} {m['value']:14.4f} {m['unit']}")
    print(f"# fail_ratio {loop.failed / attempted:.4f} ({loop.failed}/{attempted})")
    print(json.dumps({"correct": loop.failed == 0, "attempted": attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
