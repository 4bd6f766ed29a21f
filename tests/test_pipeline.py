"""End-to-end derivation: unknown coefficients from the curve counts,
the two extra products, the relations and generator dictionary, and the
closed loop against the shipped table."""
import json
import os
from fractions import Fraction

import pytest

from cgquantum.exactmath import (InconsistentSystem, UnderdeterminedSystem,
                                 rat)
from cgquantum.intersection import SCENARIO_IDS, run_all_scenarios
from cgquantum.pipeline import (CHEVALLEY_SCENARIOS, close_loop,
                                derive_missing_products, derive_presentation,
                                run_pipeline, solve_chevalley)
from cgquantum.presentation import GradedQuotient, standard_relations
from cgquantum.schubert import (MultiplicationTable, SchubertElement,
                                default_data_dir, load_default_table)


@pytest.fixture(scope="module")
def table():
    return load_default_table()


@pytest.fixture(scope="module")
def scenario_values():
    return {sid: res.value for sid, res in run_all_scenarios().items()}


@pytest.fixture(scope="module")
def derived(table, scenario_values):
    unknowns = solve_chevalley(scenario_values)
    missing = derive_missing_products(table, scenario_values)
    return unknowns, derive_presentation(table, unknowns, missing)


def test_solved_unknowns(scenario_values):
    unknowns = solve_chevalley(scenario_values)
    assert tuple(unknowns.values()) == tuple(
        rat(v) for v in (2, 0, 1, 1, 0, 0, 1, 1, 0))


def test_perturbed_count_detected(scenario_values):
    bad = dict(scenario_values)
    bad["4.1.4"] = rat(4)  # forces a half-integer coefficient
    with pytest.raises(InconsistentSystem):
        solve_chevalley(bad)


def test_all_zero_counts_are_consistent():
    zeros = {sid: rat(0) for sid in SCENARIO_IDS}
    unknowns = solve_chevalley(zeros)
    assert tuple(unknowns.values()) == (rat(0),) * 9


def test_every_count_is_load_bearing(scenario_values, table):
    for sid in CHEVALLEY_SCENARIOS:
        partial = {k: v for k, v in scenario_values.items() if k != sid}
        with pytest.raises((UnderdeterminedSystem, InconsistentSystem)):
            solve_chevalley(partial)
    for sid in ("4.2.1", "4.2.2", "4.2.3"):
        partial = {k: v for k, v in scenario_values.items() if k != sid}
        with pytest.raises((UnderdeterminedSystem, InconsistentSystem)):
            derive_missing_products(table, partial)


def test_derived_extra_products(table, scenario_values):
    s2_sq, s4_s2 = derive_missing_products(table, scenario_values)
    assert s2_sq == table.basis_product("s2", "s2")
    assert s4_s2 == table.basis_product("s4", "s2")
    assert s4_s2.coeff("s2p").coeffs == {1: 2}


def test_derived_relations_match_reference(derived):
    _, presentation = derived
    ring = presentation.quotient.ring
    assert presentation.quotient.relations == standard_relations(ring)


def test_top_quantum_coefficient_vanishes(derived):
    _, presentation = derived
    assert presentation.a7 == 0


def test_loop_closes(table, derived):
    _, presentation = derived
    report = close_loop(table, presentation)
    assert report.ok, report.diffs[:3]


def test_classical_only_inputs_diff_in_q_terms(table, scenario_values):
    zeros = {sid: rat(0) for sid in SCENARIO_IDS}
    unknowns = solve_chevalley(zeros)
    missing = derive_missing_products(table, zeros)
    presentation = derive_presentation(table, unknowns, missing)
    report = close_loop(table, presentation)
    # exactly the entries with a quantum term should differ
    quantum_pairs = set()
    from cgquantum.schubert import LABELS
    for i, a in enumerate(LABELS):
        for b in LABELS[i:]:
            elem = table.basis_product(a, b)
            if elem != elem.drop_quantum():
                quantum_pairs.add(frozenset((a, b)))
    diff_pairs = {frozenset((a, b)) for a, b, _, _ in report.diffs}
    assert diff_pairs == quantum_pairs


def test_forced_unknown_breaks_loop(table, scenario_values):
    unknowns = solve_chevalley(scenario_values)
    unknowns["a4pp"] = rat(1)
    missing = derive_missing_products(table, scenario_values)
    try:
        presentation = derive_presentation(table, unknowns, missing)
    except (InconsistentSystem, UnderdeterminedSystem):
        return  # refusing to build is an acceptable failure mode
    report = close_loop(table, presentation)
    assert not report.ok


def test_run_pipeline_report(table, scenario_values):
    result = run_pipeline(table, scenario_values)
    assert result["ok"] is True
    assert result["diff_count"] == 0
    assert result["unknowns"]["a3"] == "2"
    assert result["unknowns"]["a7"] == "0"
    assert len(result["relations"]) == 2
    assert len(result["giambelli"]) == 15
    assert set(result["scenario_values"]) == set(SCENARIO_IDS)


def test_run_pipeline_builds_each_slice_once(table, scenario_values,
                                             monkeypatch):
    # derive_presentation's quotient is the one close_loop expands through
    built = []
    build_slice = GradedQuotient._build_slice

    def counted(self, degree, below):
        built.append(degree)
        return build_slice(self, degree, below)

    monkeypatch.setattr(GradedQuotient, "_build_slice", counted)
    assert run_pipeline(table, scenario_values)["ok"] is True
    assert sorted(built) == list(range(17))


def test_derive_presentation_leaves_unknowns_unchanged(table,
                                                       scenario_values):
    unknowns = solve_chevalley(scenario_values)
    before = dict(unknowns)
    missing = derive_missing_products(table, scenario_values)
    presentation = derive_presentation(table, unknowns, missing)
    assert dict(unknowns) == before
    assert presentation.a7 == 0


def test_derivation_reduces_each_degree_once(table, scenario_values,
                                             monkeypatch):
    # one solve_rows of [rows | one column per monomial] for each of the
    # degrees 3, 4, 5 and 6, and no solve per monomial
    from cgquantum import pipeline
    sizes = []
    solve_rows = pipeline.solve_rows

    def counted(rows, n):
        sizes.append((len(rows), len(rows[0])))
        return solve_rows(rows, n)

    def no_solve(a, b):
        raise AssertionError("solve_linear called")

    unknowns = solve_chevalley(scenario_values)
    missing = derive_missing_products(table, scenario_values)
    monkeypatch.setattr(pipeline, "solve_rows", counted)
    monkeypatch.setattr(pipeline, "solve_linear", no_solve)
    derive_presentation(table, unknowns, missing)
    # (equations, targets + monomials) at degrees 3, 4, 5 and 6
    assert sizes == [(2, 2 + 2), (3, 3 + 4), (2, 2 + 4), (2, 2 + 6)]


def _degree_three_rows(s2_row, s2p_row):
    """The shipped table with the terms of s2*s1 and s2p*s1, both on s3
    and s3p at q^0, set to the given coefficients."""
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    for rec in raw["products"]:
        for label, row in (("s2", s2_row), ("s2p", s2p_row)):
            if {rec["a"], rec["b"]} == {label, "s1"}:
                rec["terms"] = [{"label": t, "q": 0, "coeff": c}
                                for t, c in zip(("s3", "s3p"), row)]
    return MultiplicationTable.from_dict(raw)


@pytest.mark.parametrize("s2_row, s2p_row, error", [
    # singular rows, and the first monomial, s1^3, has a solution
    ((0, 0), (1, 1), UnderdeterminedSystem),
    ((0, 0), (1, 0), UnderdeterminedSystem),
    # singular rows, and s1^3 has none: its failure is the one raised
    ((1, 0), (0, 0), InconsistentSystem),
    ((1, 3), (2, 6), InconsistentSystem),
])
def test_first_failing_monomial_decides_the_error(
        scenario_values, s2_row, s2p_row, error):
    broken = _degree_three_rows(s2_row, s2p_row)
    unknowns = solve_chevalley(scenario_values)
    missing = derive_missing_products(broken, scenario_values)
    message = ("solution not unique" if error is UnderdeterminedSystem
               else "no solution")
    with pytest.raises(error) as info:
        derive_presentation(broken, unknowns, missing)
    assert type(info.value) is error and str(info.value) == message
