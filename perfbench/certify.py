"""certify: the certificate a user of the paper runs.

One op is a fresh-interpreter `python -m cgquantum.cli verify --suite all`
on the shipped data, one at a time.  It is the only workload that pays
interpreter start-up and imports on every op, and the only one in which
`intersection` and `pipeline` do real work.  The seed is unused: every op
is the same certification.

The traced op repeats the calls of the CLI's `_suite_*` functions in the
same order, table reloads included, inside the benchmark's interpreter,
after a cold import in a fresh one (the `cli.import` span).
"""
from __future__ import annotations

import itertools
import sys

from cgquantum.intersection import EXPECTED, run_scenario
from cgquantum.pipeline import (close_loop, derive_missing_products,
                                derive_presentation, solve_chevalley)
from cgquantum.presentation import (build_graded_basis,
                                    cross_check_presentation, load_giambelli)
from cgquantum.schubert import MultiplicationTable, verify_table
from cgquantum.spectral import (check_semisimple, covariance_check,
                                galkin_bound_check, nilpotency_index)

from harness import (IMPORT_PROBE, PIPELINE_CHECKS, PRESENTATION_CHECKS,
                     SCENARIO_IDS, SPECTRAL_CHECKS, TABLE_CHECKS,
                     GIAMBELLI_PATH, TABLE_PATH, python_cmd)

SETUP_PROBE = IMPORT_PROBE
RSS_OF = "children"
TRACE_PAIRS_PER_S = 0.35
OP_TIMEOUT_S = 120

VERIFY_CMD = [sys.executable, "-m", "cgquantum.cli", "verify", "--suite",
              "all"]

SUITES = (("table", TABLE_CHECKS),
          ("presentation", PRESENTATION_CHECKS),
          ("scenarios", tuple(f"scenario_{sid}" for sid in SCENARIO_IDS)),
          ("pipeline", PIPELINE_CHECKS),
          ("spectral", SPECTRAL_CHECKS))
# the 33 ordered lines a passing certification prints
EXPECTED_LINES = tuple(f"[pass] {suite}:{check}"
                       for suite, checks in SUITES for check in checks)


def setup(tracer, clock):
    return clock


def ops(state, seed):
    return itertools.repeat("verify --suite all")


def _run_child(clock, cmd):
    rc, out, _ = clock.run_child(cmd, OP_TIMEOUT_S)
    if rc is None:
        return -1, [f"timed out after {OP_TIMEOUT_S} s"]
    return rc, out.splitlines()


def run(clock, op, tracer):
    return _run_child(clock, VERIFY_CMD)


def run_traced(clock, op, tr):
    rc, _ = tr.call("cli.import", _run_child, clock, python_cmd(IMPORT_PROBE))
    results = [("cli", "import", rc == 0)]

    def load():
        return tr.call("schubert.load", MultiplicationTable.load, TABLE_PATH)

    def scenario(sid):
        return tr.call(f"intersection.scenario.{sid}", run_scenario, sid)

    table = load()
    report = tr.call("schubert.verify_table", verify_table, table)
    results += [("table", c.check_id, c.passed) for c in report.checks]

    table = load()
    quotient = tr.call("presentation.build_graded_basis", build_graded_basis)
    giambelli = tr.call("presentation.load_giambelli", load_giambelli,
                        GIAMBELLI_PATH, quotient.ring)
    report = tr.call("presentation.cross_check", cross_check_presentation,
                     table, quotient, giambelli)
    results += [("presentation", c.check_id, c.passed) for c in report.checks]

    for sid in SCENARIO_IDS:
        res = scenario(sid)
        results.append(("scenarios", f"scenario_{sid}",
                        (res.main, res.correction) == EXPECTED[sid]))

    table = load()
    values = {sid: scenario(sid).value for sid in SCENARIO_IDS}
    unknowns = tr.call("pipeline.solve_chevalley", solve_chevalley, values)
    missing = tr.call("pipeline.derive_missing_products",
                      derive_missing_products, table, values)
    derived = tr.call("pipeline.derive_presentation", derive_presentation,
                      table, unknowns, missing)
    loop = tr.call("pipeline.close_loop", close_loop, table, derived)
    results += [("pipeline", "chevalley_solved", True),
                ("pipeline", "top_q2_coefficient_zero", derived.a7 == 0),
                ("pipeline", "loop_closed", loop.ok)]

    table = load()
    _, bound_ok, spec = tr.call("spectral.galkin_bound_check",
                                galkin_bound_check, table)
    nilpotent = tr.call("spectral.nilpotency_index", nilpotency_index,
                        table, 0) > 0
    semisimple, _ = tr.call("spectral.check_semisimple", check_semisimple,
                            table, 0)
    covariant = tr.call("spectral.covariance_check", covariance_check,
                        table, 16)
    results += [("spectral", cid, ok) for cid, ok in zip(SPECTRAL_CHECKS, (
        spec.shape_ok, spec.dominant_real_simple,
        spec.modulus_set_is_fourth_roots, spec.trace_form_nondegenerate,
        bound_ok, nilpotent, not semisimple, covariant))]

    lines = [f"[{'pass' if ok else 'fail'}] {suite}:{cid}"
             for suite, cid, ok in results[1:]]
    return (0 if all(ok for _, _, ok in results) else 1), lines


def check(state, op, result):
    """Exit code 0 and exactly the 33 ordered `[pass] suite:check` lines."""
    rc, lines = result
    if rc == 0 and tuple(lines) == EXPECTED_LINES:
        return True, {}, None
    wrong = [line for line in lines if line not in EXPECTED_LINES]
    return False, {}, f"exit {rc}, {len(lines)} lines, unexpected: {wrong[:3]}"
