"""Shared pieces of the benchmark: checkout paths, the metric registry, the
tracer, the host clock, the op schedule and the engine state that the
in-process workloads set up.

Nothing here imports cgquantum at module level, so the registry can be read
without the program and the set-up probe times the imports itself.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "cgquantum", "data")
TABLE_PATH = os.path.join(DATA, "cg_table.json")
GIAMBELLI_PATH = os.path.join(DATA, "cg_giambelli.json")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# mutant data files of fault_sweep; removed when a run ends
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

LAYERS = ("cli", "schubert", "presentation", "intersection", "pipeline",
          "spectral", "exactmath")

SCENARIO_IDS = ("4.1.1", "4.1.2", "4.1.3", "4.1.4", "4.1.5", "4.1.6",
                "4.1.7", "4.1.8", "4.1.9", "4.2.1", "4.2.2", "4.2.3")

# every public call the benchmark times as a span, named <layer>.<function>
FUNCTIONS = (
    "cli.import",
    "schubert.load", "schubert.verify_table", "schubert.quantum_product",
    "schubert.gw_invariant",
    "presentation.build_graded_basis", "presentation.load_giambelli",
    "presentation.cross_check", "presentation.normal_form",
    "presentation.expand_in_schubert",
    *(f"intersection.scenario.{sid}" for sid in SCENARIO_IDS),
    "pipeline.solve_chevalley", "pipeline.derive_missing_products",
    "pipeline.derive_presentation", "pipeline.close_loop",
    "spectral.galkin_bound_check", "spectral.check_semisimple",
    "spectral.nilpotency_index", "spectral.covariance_check",
    "spectral.multiplication_matrix",
    "exactmath.charpoly",
)

TABLE_CHECKS = ("identity", "grading", "positivity", "pairing", "gw_symmetry",
                "associativity", "chevalley_rows")
PRESENTATION_CHECKS = ("relations_killed", "giambelli_evaluation",
                       "products_match")
PIPELINE_CHECKS = ("chevalley_solved", "top_q2_coefficient_zero",
                   "loop_closed")
SPECTRAL_CHECKS = ("charpoly_shape", "dominant_real_simple",
                   "modulus_set_fourth_roots", "trace_form_nondegenerate",
                   "spectral_radius_bound", "classical_nilpotent",
                   "classical_not_semisimple", "charpoly_covariance")
# exceptions the code documents as verdicts on bad data
DOCUMENTED_EXCEPTIONS = ("ValueError", "InconsistentSystem",
                         "UnderdeterminedSystem")
# what can catch a fault_sweep mutant: a failing named check of an entry
# point the op runs, or a documented exception
CATCHERS = (TABLE_CHECKS + SPECTRAL_CHECKS[:5] + PRESENTATION_CHECKS
            + PIPELINE_CHECKS[1:] + DOCUMENTED_EXCEPTIONS)

OP_KINDS = ("table", "giambelli", "scenario", "control",
            "product", "gw", "expand", "charpoly")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    tuple(m for f in FUNCTIONS for m in ((f"{f}.ms", "ms"),
                                         (f"{f}.calls", "count")))
    + tuple(m for layer in LAYERS for m in ((f"{layer}.busy_ms", "ms"),
                                            (f"{layer}.share", "frac")))
    + (("trace.overhead_frac", "frac"), ("trace.accounted_frac", "frac"),
       ("failed_frac", "frac"))
    + tuple((f"ops.{kind}", "count") for kind in OP_KINDS)
    + tuple((f"caught_by.{c}", "count") for c in CATCHERS)
)


def child_env() -> dict:
    """Environment for the program's child processes: the checkout's own
    source, its shipped data and bytecode caching on, as a user has them,
    whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("CG_DATA_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    return env


class Tracer:
    """Spans around the benchmark's own calls into cgquantum, kept in
    memory as (op index, name, seconds).  Op index -1 is set-up.  Spans
    never nest, so a span's self time is its duration."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple[int, str, float]] = []

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, name, time.perf_counter() - start))


class NoTrace:
    """The untraced path: the same call sites, no timing."""

    op = -1

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


NO_TRACE = NoTrace()


CHECK_EVERY_S = 0.02     # longest stretch of op time between two probes
FRESH_S = 0.002          # a probe this recent also opens the next op
DISTURBED_RATIO = 1.25   # probe time over the run's best that means disturbed
MOVE_EVERY_S = 0.2       # least time between two tries of the other CPUs
BEST_OF = 10             # the run's best probe time is its 10th fastest
# the probe's time on an undisturbed CPU of the 2-core x86-64 host the
# benchmark was defined on (49-60 us, 10th fastest of 25 000: 49.6 us)
PROBE_REF_S = 50e-6
WARM_UP_S = 0.5
CLOCK_MAX_CPUS = 8       # a check costs more with every CPU tried


def _probe():
    total = Fraction(0)
    for i in range(1, 25):
        total += Fraction(1, i % 97 + 1)
    return total


class HostClock:
    """Times ops in reference seconds: seconds of a CPU on which the probe
    takes PROBE_REF_S, whatever load the host is under.

    On the shared 2-core host the benchmark was defined on, neighbours slow
    a virtual CPU to about half speed, one CPU or both at once, in bursts
    from milliseconds to minutes, and the disturbed share of the time drifts
    from minute to minute.  CPU time tracks wall time, so the slowdown
    cannot be seen from inside an op, and waiting for quiet does not work
    when most of the time is disturbed.

    So the clock times a short Fraction loop, the probe, on the op's CPU
    right before every op (unless one ran in the last FRESH_S), right after
    it, and every CHECK_EVERY_S inside it (on a timer signal; a child the
    op runs is stopped meanwhile).  Between two probes the op ran at the
    mean of their speeds, so an op's work in probe units is the sum over
    those stretches of length times speed, and `seconds` turns it into
    reference seconds.  The probes themselves are left out of op time.
    When a probe reads more than DISTURBED_RATIO times the run's best, the
    clock moves the benchmark, and its child, to the fastest CPU it finds,
    trying at most every MOVE_EVERY_S.  Where affinity cannot be set, the
    clock only probes.
    """

    def __init__(self):
        self.cpus = (sorted(os.sched_getaffinity(0))[:CLOCK_MAX_CPUS]
                     if hasattr(os, "sched_setaffinity") else [])
        self.cpu = None
        self.child = None        # pid of the running child, if any
        self.probes = 0
        self.moves = 0
        self._fastest: list[float] = []  # the BEST_OF fastest probe times
        self._speed = 0.0        # 1 / probe time where the current stretch began
        self._since = 0.0        # when the current stretch began
        self._work = None        # probe units of the current op, or None
        self._raw = 0.0          # its wall time outside probes
        self._busy = False
        self._tried = float("-inf")  # when the other CPUs were last tried

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        deadline = time.perf_counter() + WARM_UP_S
        while time.perf_counter() < deadline:
            for cpu in self.cpus or [None]:
                self._probe_on(cpu)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def best_s(self) -> float:
        """The run's best probe time: the probe on an undisturbed CPU."""
        return self._fastest[-1]

    @staticmethod
    def seconds(work: float) -> float:
        """Reference seconds of `work` probe units."""
        return work * PROBE_REF_S

    def report(self) -> dict:
        return {"probes": self.probes, "moves": self.moves,
                "best_probe_us": self.best_s * 1e6}

    def _probe_on(self, cpu) -> float:
        if cpu != self.cpu:
            os.sched_setaffinity(0, {cpu})
            self.cpu = cpu
            _probe()  # warms the new CPU's caches; not timed
        start = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - start
        self.probes += 1
        self._fastest = sorted(self._fastest + [elapsed])[:BEST_OF]
        return elapsed

    def _signal_child(self, sig):
        if self.child is not None:
            try:
                os.kill(self.child, sig)
            except ProcessLookupError:  # it ended since the last check
                pass

    def check(self):
        """Close the stretch that just ran with a probe on its CPU, and
        start the next one, on the fastest CPU when this one is
        disturbed."""
        if self._busy:
            return
        self._busy = True
        now = time.perf_counter()
        self._signal_child(signal.SIGSTOP)
        try:
            elapsed = self._probe_on(self.cpu)
            if self._work is not None:
                stretch = now - self._since
                self._raw += stretch
                self._work += stretch * (self._speed + 1 / elapsed) / 2
            if (elapsed > DISTURBED_RATIO * self.best_s and len(self.cpus) > 1
                    and now - self._tried >= MOVE_EVERY_S):
                self._tried = now
                cpu = self.cpu
                elapsed, best_cpu = min([(elapsed, cpu)] + [
                    (self._probe_on(c), c) for c in self.cpus if c != cpu])
                if best_cpu != self.cpu:
                    elapsed = self._probe_on(best_cpu)
                if best_cpu != cpu:
                    self.moves += 1
                    if self.child is not None:
                        try:
                            os.sched_setaffinity(self.child, {best_cpu})
                        except ProcessLookupError:
                            pass
            self._speed = 1 / elapsed
        finally:
            self._signal_child(signal.SIGCONT)
            self._since = time.perf_counter()
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.check()

    def timed(self, fn, *args):
        """(fn(*args), its work in probe units, its wall time outside
        probes)."""
        signal.setitimer(signal.ITIMER_REAL, CHECK_EVERY_S, CHECK_EVERY_S)
        try:
            if time.perf_counter() - self._since < FRESH_S:
                self._since = time.perf_counter()
            else:
                self.check()
            self._work, self._raw = 0.0, 0.0
            result = fn(*args)
            self.check()
            return result, self._work, self._raw
        finally:
            self._work = None
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run_child(self, cmd: list[str], timeout: float):
        """Run cmd from the checkout's root to its end; (returncode, stdout,
        stderr), returncode None if it timed out.  While it runs, the clock
        stops it during probes and moves it with the benchmark."""
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        self.child = proc.pid  # starts on the benchmark's CPU
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err
        finally:
            self.child = None
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGCONT)
                proc.kill()
                proc.wait()
        return proc.returncode, out, err


def schedule(weights: dict[str, int]) -> list[str]:
    """One period of kinds in which each kind appears `weight` times, spread
    evenly (smooth weighted round robin).  The kind mix of any window is
    then within one op of its share, whatever the seed."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    out = []
    for _ in range(total):
        for kind, weight in weights.items():
            credit[kind] += weight
        kind = max(credit, key=credit.get)
        credit[kind] -= total
        out.append(kind)
    return out


@dataclass
class Engine:
    table: object
    quotient: object
    giambelli: dict
    scenario_values: dict


def load_engine(tracer=NO_TRACE) -> Engine:
    """Set-up of the in-process workloads: imports, table and Giambelli
    load, the quotient build and the twelve scenario values."""
    from cgquantum import pipeline, spectral  # noqa: F401  (ops use them)
    from cgquantum.intersection import run_scenario
    from cgquantum.presentation import build_graded_basis, load_giambelli
    from cgquantum.schubert import MultiplicationTable

    table = tracer.call("schubert.load", MultiplicationTable.load, TABLE_PATH)
    quotient = tracer.call("presentation.build_graded_basis",
                           build_graded_basis)
    giambelli = tracer.call("presentation.load_giambelli", load_giambelli,
                            GIAMBELLI_PATH, quotient.ring)
    values = {sid: tracer.call(f"intersection.scenario.{sid}",
                               run_scenario, sid).value
              for sid in SCENARIO_IDS}
    return Engine(table, quotient, giambelli, values)


# set-up of the in-process workloads as a fresh interpreter runs it
ENGINE_PROBE = (f"import sys; sys.path.insert(0, {BENCH_DIR!r}); "
                "import harness; harness.load_engine()")
# every cgquantum module that `cgq verify --suite all` loads
IMPORT_PROBE = ("import cgquantum.cli, cgquantum.presentation, "
                "cgquantum.intersection, cgquantum.pipeline, "
                "cgquantum.spectral")


def python_cmd(code: str) -> list[str]:
    return [sys.executable, "-c", code]
