"""Every +-1 Giambelli and scenario fault, as the benchmark's fault sweep
generates them, and every +-1 fault on a table entry that the derivation
reads, gives exactly the report or exception pinned in
golden/presentation_faults.json.

Regenerate the golden file (only where a change of output is intended):
    PYTHONPATH=src python tests/test_presentation_faults.py \
        > tests/golden/presentation_faults.json
"""
import json
import os
import random
import tempfile
from fractions import Fraction

from cgquantum.intersection import run_all_scenarios
from cgquantum.pipeline import run_pipeline
from cgquantum.presentation import (build_graded_basis,
                                    cross_check_presentation, load_giambelli)
from cgquantum.schubert import (DEGREES, LABELS, MultiplicationTable,
                                default_data_dir, load_default_table)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "presentation_faults.json")

# the table entries that derive_missing_products and derive_presentation
# read; every other entry enters only close_loop's comparison
DERIVATION_ENTRIES = [{"s1", x} for x in ("s2", "s2p", "s3", "s3p", "s4", "s4p",
                                          "s4pp", "s5", "s5p", "s6")] + \
    [{"s2"}, {"s2", "s4"}]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def giambelli_fault_outcomes(table, workdir):
    """For +-1 on each Giambelli coefficient, written as the fault sweep
    writes it (str(Fraction(coeff) + d)), the cross-check report."""
    with open(os.path.join(default_data_dir(), "cg_giambelli.json")) as fh:
        raw = json.load(fh)
    quotient = build_graded_basis()
    path = os.path.join(workdir, "giambelli.json")
    out = {}
    for label, terms in raw.items():
        for t, term in enumerate(terms):
            clean = term["coeff"]
            for d in (1, -1):
                term["coeff"] = str(Fraction(clean) + d)
                with open(path, "w") as fh:
                    json.dump(raw, fh)
                term["coeff"] = clean

                def check():
                    giambelli = load_giambelli(path, quotient.ring)
                    return cross_check_presentation(
                        table, quotient, giambelli).to_dict()

                out[f"{label} term {t} {d:+d}"] = _outcome(check)
    return out


def scenario_fault_outcomes(table):
    """For +-1 on each scenario value, the pipeline's report."""
    values = {sid: r.value for sid, r in run_all_scenarios().items()}
    out = {}
    for sid in sorted(values):
        for d in (1, -1):
            mutant = dict(values, **{sid: values[sid] + d})
            out[f"{sid} {d:+d}"] = _outcome(run_pipeline, table, mutant)
    return out


def table_fault_outcomes():
    """For +-1 on each term of the entries the derivation reads, and for
    the off-grade s4*s2 terms that once ended the derivation in a
    ValueError or KeyError, the pipeline's report on the shipped scenario
    values."""
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    values = {sid: r.value for sid, r in run_all_scenarios().items()}
    out = {}

    def record(name):
        out[name] = _outcome(run_pipeline,
                             MultiplicationTable.from_dict(raw), values)

    for rec in raw["products"]:
        if {rec["a"], rec["b"]} not in DERIVATION_ENTRIES:
            continue
        for term in rec["terms"]:
            for d in (1, -1):
                term["coeff"] += d
                record(f"{rec['a']}*{rec['b']} term {term['label']} {d:+d}")
                term["coeff"] -= d
    s4_s2 = next(rec for rec in raw["products"]
                 if {rec["a"], rec["b"]} == {"s2", "s4"})
    for label in LABELS:
        if DEGREES[label] != 6:
            s4_s2["terms"].append({"label": label, "q": 0, "coeff": 1})
            record(f"s4*s2 gains {label} q^0")
            s4_s2["terms"].pop()
    (s2p,) = [t for t in s4_s2["terms"] if t["label"] == "s2p"]
    s2p["q"] -= 1
    record("s4*s2 term s2p q-1")
    s2p["q"] += 1
    return out


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_giambelli_faults_are_pinned(tmp_path):
    got = giambelli_fault_outcomes(load_default_table(), str(tmp_path))
    want = _golden()["giambelli"]
    assert len(got) == 84
    assert got == want


def test_scenario_faults_are_pinned():
    got = scenario_fault_outcomes(load_default_table())
    want = _golden()["scenario"]
    assert len(got) == 24
    assert got == want


def test_table_faults_are_pinned():
    got = table_fault_outcomes()
    want = _golden()["table"]
    assert len(got) == 72
    assert got == want


def test_table_faults_outside_the_derivation_diff_in_close_loop():
    # a +-1 fault on an entry the derivation does not read leaves the
    # derived presentation the shipped one, so close_loop's comparison
    # reports exactly the faulted product, derived value first
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    clean = MultiplicationTable.from_dict(raw)
    values = {sid: r.value for sid, r in run_all_scenarios().items()}
    faults = [(rec, term, d) for rec in raw["products"]
              if {rec["a"], rec["b"]} not in DERIVATION_ENTRIES
              for term in rec["terms"] for d in (1, -1)]
    assert len(faults) == 536
    for rec, term, d in random.Random(24).sample(faults, 40):
        term["coeff"] += d
        faulted = MultiplicationTable.from_dict(raw)
        term["coeff"] -= d
        a, b = sorted((rec["a"], rec["b"]), key=LABELS.index)
        report = run_pipeline(faulted, values)
        assert (report["ok"], report["diff_count"]) == (False, 1)
        assert report["diffs"] == [[a, b, str(clean.basis_product(a, b)),
                                    str(faulted.basis_product(a, b))]]


if __name__ == "__main__":
    table = load_default_table()
    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps({"giambelli": giambelli_fault_outcomes(table, workdir),
                          "scenario": scenario_fault_outcomes(table),
                          "table": table_fault_outcomes()},
                         indent=1))
