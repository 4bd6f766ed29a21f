"""Every +-1 Giambelli and scenario fault, as the benchmark's fault sweep
generates them, gives exactly the report or exception pinned in
golden/presentation_faults.json.

Regenerate the golden file (only where a change of output is intended):
    PYTHONPATH=src python tests/test_presentation_faults.py \
        > tests/golden/presentation_faults.json
"""
import json
import os
import tempfile
from fractions import Fraction

from cgquantum.intersection import run_all_scenarios
from cgquantum.pipeline import run_pipeline
from cgquantum.presentation import (build_graded_basis,
                                    cross_check_presentation, load_giambelli)
from cgquantum.schubert import default_data_dir, load_default_table

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "presentation_faults.json")


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


if __name__ == "__main__":
    table = load_default_table()
    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps({"giambelli": giambelli_fault_outcomes(table, workdir),
                          "scenario": scenario_fault_outcomes(table)},
                         indent=1))
