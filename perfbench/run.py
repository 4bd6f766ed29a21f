"""Benchmark of the cgquantum engine: three workloads, six end-to-end
metrics and a per-layer trace.  Standard library only.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, fault_sweep, ring_queries (see perfbench/README.md).
Each is a closed loop with one client.  `--trace 0` measures the end-to-end
metrics with tracing off for `--seconds` of op time, in seconds of an
undisturbed CPU of the host (`harness.HostClock`).  `--trace 1` runs a
fixed, seed-determined number of ops, each once with spans around every call
the benchmark makes into cgquantum and once without, and reports the
per-layer metrics.  Every answer is checked.

Standard output is one line per metric with its unit, then a JSON line of
provenance and exact work counts, then the result as one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict

from harness import (CATCHERS, END_TO_END, FUNCTIONS, GIAMBELLI_PATH, LAYERS,
                     NO_TRACE, OP_KINDS, PER_LAYER, ROOT, SRC, TABLE_PATH,
                     WORK_DIR, HostClock, Tracer, python_cmd)

WORKLOADS = ("certify", "fault_sweep", "ring_queries")
SETUP_REPEATS = 9
# op_tail_ms is the highest of these percentiles with at least MIN_BEYOND
# samples above it
TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND = 10
MAX_NOTES = 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Verdicts and exact work counts of the ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()
        self.notes: list[str] = []

    def add(self, ok: bool, counts: dict, note: str | None):
        self.attempted += 1
        self.counts.update(counts)
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(note)


def setup_probe(clock, workload) -> float:
    """Work, in probe units, of one fresh process doing the workload's
    set-up."""
    (rc, _, err), work, _ = clock.timed(clock.run_child,
                                        python_cmd(workload.SETUP_PROBE), 120)
    if rc != 0:
        raise BenchError(f"set-up probe failed:\n{err}")
    return work


def tail_percentile(sorted_ms: list[float]) -> tuple[int, float, int]:
    """(percentile, nearest-rank value, samples beyond it)."""
    n = len(sorted_ms)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= MIN_BEYOND or p == TAIL_LADDER[-1]:
            break
    return p, sorted_ms[rank - 1], n - rank


def measure(workload, seed: int, seconds: int):
    with HostClock() as clock:
        setup_probe(clock, workload)  # compiles the bytecode; not counted
        state = workload.setup(NO_TRACE, clock)
        tally = Tally()
        works = []
        setups = []
        busy = 0.0
        ops = workload.ops(state, seed)
        while busy < seconds:
            # set-up probes are spread over the run, outside op time, so
            # they meet the same host conditions as the ops
            if busy >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(setup_probe(clock, workload))
            op = next(ops)
            result, work, raw = clock.timed(workload.run, state, op,
                                            NO_TRACE)
            busy += raw
            works.append(work)
            tally.add(*workload.check(state, op, result))
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_probe(clock, workload))
    who = (resource.RUSAGE_CHILDREN if workload.RSS_OF == "children"
           else resource.RUSAGE_SELF)
    latencies = sorted(clock.seconds(w) * 1000 for w in works)
    pct, tail, beyond = tail_percentile(latencies)
    metrics = {
        "setup_s": clock.seconds(statistics.median(setups)),
        "ops_per_s": len(latencies) / clock.seconds(sum(works)),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    detail = {"op_tail": {"percentile": pct, "samples": len(latencies),
                          "beyond": beyond},
              # op time as the wall clock read it, without the probes, and
              # its ratio to op time on an undisturbed CPU
              "wall_op_s": busy,
              "slowdown": busy / clock.seconds(sum(works)),
              "clock": clock.report()}
    return metrics, tally, detail


def trace(workload, seed: int, seconds: int):
    tracer = Tracer()
    n = max(1, round(seconds * workload.TRACE_PAIRS_PER_S))
    tally = Tally()
    wall = {True: 0.0, False: 0.0}
    # spans time whole calls in wall time, so the clock only keeps the
    # benchmark on an undisturbed CPU here, checked between ops
    with HostClock() as clock:
        state = workload.setup(tracer, clock)
        ops = workload.ops(state, seed)
        for i in range(n):
            op = next(ops)
            tracer.op = i
            results = {}
            # alternate which run goes first, so warm-up favours neither
            for traced in ((True, False) if i % 2 == 0 else (False, True)):
                clock.check()
                start = time.perf_counter()
                results[traced] = (
                    workload.run_traced(state, op, tracer) if traced
                    else workload.run(state, op, NO_TRACE))
                wall[traced] += time.perf_counter() - start
            ok, counts, note = workload.check(state, op, results[True])
            ok_untraced, _, note_untraced = workload.check(state, op,
                                                           results[False])
            tally.add(ok and ok_untraced, counts, note or note_untraced)

    per_call = defaultdict(list)
    busy = Counter()
    for op, name, duration in tracer.spans:
        per_call[name].append(duration)
        if op >= 0:
            busy[name.split(".")[0]] += duration
    metrics = {}
    for name in FUNCTIONS:
        calls = per_call.get(name, [])
        metrics[f"{name}.ms"] = statistics.median(calls) * 1000 if calls else 0.0
        metrics[f"{name}.calls"] = len(calls)
    for layer in LAYERS:
        metrics[f"{layer}.busy_ms"] = busy[layer] / n * 1000
        metrics[f"{layer}.share"] = busy[layer] / wall[True]
    metrics["trace.overhead_frac"] = wall[True] / wall[False] - 1
    metrics["trace.accounted_frac"] = sum(busy.values()) / wall[False]
    metrics["failed_frac"] = tally.failed / tally.attempted
    for kind in OP_KINDS:
        metrics[f"ops.{kind}"] = tally.counts[f"ops.{kind}"]
    for catcher in CATCHERS:
        metrics[f"caught_by.{catcher}"] = tally.counts[f"caught_by.{catcher}"]
    detail = {"traced_ops": n, "traced_wall_s": wall[True],
              "untraced_wall_s": wall[False], "clock": clock.report()}
    return metrics, tally, detail


def git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the program's source and data, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cgquantum")
    paths = []
    for base, dirs, files in os.walk(package):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(base, name) for name in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, package).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (os.path.join(SRC, "cgquantum", "__init__.py"), TABLE_PATH,
                 GIAMBELLI_PATH):
        if not os.path.isfile(path):
            print(f"perfbench: not a cgquantum checkout, {path} is missing; "
                  "run from the root of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    os.environ.pop("CG_DATA_DIR", None)
    workload = importlib.import_module(args.workload)
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, tally, detail = trace(workload, args.seed, args.seconds)
        else:
            metrics, tally, detail = measure(workload, args.seed,
                                             args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    failed_frac = tally.failed / tally.attempted
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {tally.attempted} ops, {tally.failed} failed "
          f"(failed_frac {failed_frac})")
    for name, value in metrics.items():
        print(f"{name:<40} {value:<14.6g} {units[name]}")
    if "op_tail" in detail:
        tail = detail["op_tail"]
        print(f"# op_tail_ms is p{tail['percentile']} of {tail['samples']} "
              f"ops ({tail['beyond']} beyond)")
    print(json.dumps({
        "provenance": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "source_sha256": source_digest(),
            "trace.overhead_frac": metrics.get("trace.overhead_frac"),
            "wall_s": time.perf_counter() - started,
        },
        "failed_frac": failed_frac,
        "counts": dict(sorted(tally.counts.items())),
        "failures": tally.notes,
        **detail,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
