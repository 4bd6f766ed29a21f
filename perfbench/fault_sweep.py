"""fault_sweep: the README's fault-injection use, one single-point mutant
of the shipped data per op.

A mutant is +1 or -1 on one of the 297 table terms, one of the 42
Giambelli coefficients or one of the 12 scenario values; a clean control
takes the place of about one op in eight.  The op runs every check entry
point that reads the mutated data:

- table: load, `verify_table`, `galkin_bound_check`;
- Giambelli: `load_giambelli`, `cross_check_presentation`;
- scenario: `solve_chevalley` -> `derive_missing_products` ->
  `derive_presentation` -> `close_loop`.

Every op brings new data, so no per-table or per-dictionary cache can hit.
A mutant is caught by a failing named check or by an exception the code
documents; a missed mutant, a failed control or any other exception fails
the op.  No mutant is left out of the population.
"""
from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from cgquantum.exactmath import InconsistentSystem, UnderdeterminedSystem
from cgquantum.pipeline import (close_loop, derive_missing_products,
                                derive_presentation, solve_chevalley)
from cgquantum.presentation import cross_check_presentation, load_giambelli
from cgquantum.schubert import MultiplicationTable, verify_table
from cgquantum.spectral import galkin_bound_check

from harness import (ENGINE_PROBE, GIAMBELLI_PATH, SPECTRAL_CHECKS,
                     TABLE_PATH, WORK_DIR, load_engine, schedule)

SETUP_PROBE = ENGINE_PROBE
RSS_OF = "self"
TRACE_PAIRS_PER_S = 1.0

# one period of 32 ops: 28 mutants in the population's kind proportions
# (594 : 84 : 24) and 4 clean controls
PERIOD = schedule({"table": 24, "giambelli": 3, "scenario": 1,
                   "table control": 2, "giambelli control": 1,
                   "scenario control": 1})
PIPELINE_EXCEPTIONS = (InconsistentSystem, UnderdeterminedSystem)
CLEAN_PATHS = {"table": TABLE_PATH, "giambelli": GIAMBELLI_PATH}


@dataclass
class Fault:
    kind: str            # table, giambelli or scenario
    control: bool
    name: str
    path: str = ""       # data file of a table or Giambelli op
    values: dict | None = None   # scenario values of a scenario op


def setup(tracer, clock):
    return load_engine(tracer)


def _cycle(rng, sites):
    """Every site once per pass, in a seeded order."""
    while True:
        yield from rng.sample(sites, len(sites))


def _write(name, raw):
    path = os.path.join(WORK_DIR, name)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def ops(engine, seed):
    rng = random.Random(seed)
    with open(TABLE_PATH) as fh:
        table_raw = json.load(fh)
    with open(GIAMBELLI_PATH) as fh:
        giambelli_raw = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)
    sites = {
        "table": _cycle(rng, [(p, t, d) for p, rec in
                              enumerate(table_raw["products"])
                              for t in range(len(rec["terms"]))
                              for d in (1, -1)]),
        "giambelli": _cycle(rng, [(label, t, d) for label, terms in
                                  giambelli_raw.items()
                                  for t in range(len(terms))
                                  for d in (1, -1)]),
        "scenario": _cycle(rng, [(sid, d) for sid in
                                 sorted(engine.scenario_values)
                                 for d in (1, -1)]),
    }
    for slot in itertools.cycle(PERIOD):
        kind, _, control = slot.partition(" ")
        if control:
            yield Fault(kind, True, slot, CLEAN_PATHS.get(kind, ""),
                        engine.scenario_values)
            continue
        site = next(sites[kind])
        if kind == "table":
            p, t, d = site
            term = table_raw["products"][p]["terms"][t]
            rec = table_raw["products"][p]
            name = f"table {rec['a']}*{rec['b']} term {term['label']} {d:+d}"
            term["coeff"] += d
            path = _write("table.json", table_raw)
            term["coeff"] -= d
            yield Fault(kind, False, name, path)
        elif kind == "giambelli":
            label, t, d = site
            term = giambelli_raw[label][t]
            clean = term["coeff"]
            term["coeff"] = str(Fraction(clean) + d)
            path = _write("giambelli.json", giambelli_raw)
            term["coeff"] = clean
            yield Fault(kind, False, f"giambelli {label} term {t} {d:+d}",
                        path)
        else:
            sid, d = site
            values = dict(engine.scenario_values)
            values[sid] += d
            yield Fault(kind, False, f"scenario {sid} {d:+d}", values=values)


def _attempt(tr, name, fn, args, caught, errors, documented=()):
    """Run one check entry point.  A documented exception is a verdict and
    is recorded as caught; any other exception fails the op."""
    try:
        return tr.call(name, fn, *args)
    except documented as exc:
        caught.append(type(exc).__name__)
    except Exception as exc:  # reported in the run's errors, never raised
        errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return None


def run(engine, fault, tr):
    caught: list[str] = []
    errors: list[str] = []
    if fault.kind == "table":
        table = _attempt(tr, "schubert.load", MultiplicationTable.load,
                         (fault.path,), caught, errors)
        if table is not None:
            report = _attempt(tr, "schubert.verify_table", verify_table,
                              (table,), caught, errors)
            if report is not None:
                caught += [c.check_id for c in report.failures()]
            galkin = _attempt(tr, "spectral.galkin_bound_check",
                              galkin_bound_check, (table,), caught, errors)
            if galkin is not None:
                _, bound_ok, spec = galkin
                caught += [cid for cid, ok in zip(SPECTRAL_CHECKS, (
                    spec.shape_ok, spec.dominant_real_simple,
                    spec.modulus_set_is_fourth_roots,
                    spec.trace_form_nondegenerate, bound_ok)) if not ok]
    elif fault.kind == "giambelli":
        giambelli = _attempt(tr, "presentation.load_giambelli",
                             load_giambelli,
                             (fault.path, engine.quotient.ring),
                             caught, errors, documented=ValueError)
        if giambelli is not None:
            report = _attempt(tr, "presentation.cross_check",
                              cross_check_presentation,
                              (engine.table, engine.quotient, giambelli),
                              caught, errors)
            if report is not None:
                caught += [c.check_id for c in report.failures()]
    else:
        documented = PIPELINE_EXCEPTIONS
        table, values = engine.table, fault.values
        unknowns = _attempt(tr, "pipeline.solve_chevalley", solve_chevalley,
                            (values,), caught, errors, documented)
        missing = derived = loop = None
        if unknowns is not None:
            missing = _attempt(tr, "pipeline.derive_missing_products",
                               derive_missing_products, (table, values),
                               caught, errors, documented)
        if missing is not None:
            derived = _attempt(tr, "pipeline.derive_presentation",
                               derive_presentation,
                               (table, unknowns, missing), caught, errors,
                               documented)
        if derived is not None:
            loop = _attempt(tr, "pipeline.close_loop", close_loop,
                            (table, derived), caught, errors, documented)
            if derived.a7 != 0:
                caught.append("top_q2_coefficient_zero")
        if loop is not None and not loop.ok:
            caught.append("loop_closed")
    return caught, errors


run_traced = run


def check(engine, fault, result):
    caught, errors = result
    if fault.control:
        counts = {"ops.control": 1}
        ok = not caught and not errors
        note = None if ok else f"{fault.name} failed: {caught + errors}"
    else:
        counts = {f"ops.{fault.kind}": 1}
        counts.update((f"caught_by.{c}", 1) for c in set(caught))
        ok = bool(caught) and not errors
        note = None if ok else (f"{fault.name}: " + (
            f"{errors}" if errors else "missed"))
    return ok, counts, note
