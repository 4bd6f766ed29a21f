"""Acceptance gate: seven end-to-end criteria, one per test, each
printing a single pass/fail line.  Run with -s (or check the -v listing)
to see the lines; everything is exact arithmetic unless a tolerance is
stated inline."""
from fractions import Fraction

import pytest

from cgquantum.exactmath import (InconsistentSystem, QPolynomial,
                                 UnderdeterminedSystem, rat)
from cgquantum.schubert import (LABELS, SchubertElement, classical_product,
                                load_default_table, quantum_product,
                                verify_table)


@pytest.fixture(scope="module")
def table():
    return load_default_table()


@pytest.fixture(scope="module")
def scenario_values():
    from cgquantum.intersection import run_all_scenarios
    return {sid: res.value for sid, res in run_all_scenarios().items()}


def _report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_table_integrity(table):
    report = verify_table(table)
    wanted = {"identity", "grading", "positivity", "pairing", "gw_symmetry",
              "associativity", "chevalley_rows"}
    ran = {c.check_id for c in report.checks}
    _report("1 (table integrity)", report.ok and wanted <= ran)


def test_criterion_2_presentation_equivalence(table):
    from cgquantum.presentation import (build_graded_basis,
                                        cross_check_presentation,
                                        expected_dimension, load_giambelli)
    quotient = build_graded_basis()  # raises on any dimension mismatch
    dims_ok = all(quotient.dimension(d) == expected_dimension(d)
                  for d in range(17))
    report = cross_check_presentation(table, quotient,
                                      load_giambelli(ring=quotient.ring))
    _report("2 (presentation equivalence)", dims_ok and report.ok)


def test_criterion_3_intersection_scenarios():
    from cgquantum.intersection import run_scenario
    expected = {
        "4.1.1": (2, 0), "4.1.2": (0, 0), "4.1.3": (1, 0), "4.1.4": (3, 0),
        "4.1.5": (2, 0), "4.1.6": (2, 0), "4.1.7": (3, 0), "4.1.8": (7, 1),
        "4.1.9": (4, 0), "4.2.1": (0, 0), "4.2.2": (2, 0), "4.2.3": (3, 1),
    }
    ok = True
    for sid, (main, correction) in expected.items():
        res = run_scenario(sid)
        ok = ok and res.main == main and res.correction == correction
    _report("3 (curve-count scenarios)", ok)


def test_criterion_4_pipeline_closure(table, scenario_values):
    from cgquantum.pipeline import (close_loop, derive_missing_products,
                                    derive_presentation, solve_chevalley)
    from cgquantum.presentation import standard_relations
    unknowns = solve_chevalley(scenario_values)
    solved_ok = tuple(unknowns.values()) == tuple(
        rat(v) for v in (2, 0, 1, 1, 0, 0, 1, 1, 0))
    derived = derive_presentation(
        table, unknowns, derive_missing_products(table, scenario_values))
    relations_ok = derived.quotient.relations == standard_relations(
        derived.quotient.ring)
    loop = close_loop(table, derived)
    _report("4 (pipeline closure)",
            solved_ok and derived.a7 == 0 and relations_ok and loop.ok)


def test_criterion_5_spectral(table):
    from cgquantum.spectral import (conjecture_o_check, galkin_bound_check,
                                    sigma1_charpoly)
    p = sigma1_charpoly(table, 1)
    charpoly_ok = p.coeffs == {15: rat(1), 11: rat(-102), 7: rat(317),
                               3: rat(-2048)}
    report = conjecture_o_check(table)
    y_ref = 99.00713881372502
    y_ok = abs(report.y_max - y_ref) <= 1e-9 * y_ref
    t_cg, bound_ok, _ = galkin_bound_check(table)
    t_ok = abs(t_cg - 12.6175960332) <= 1e-8
    _report("5 (spectral)",
            charpoly_ok and report.trace_form_nondegenerate and y_ok
            and t_ok and bound_ok and report.modulus_set_is_fourth_roots
            and report.dominant_real_simple)


def test_criterion_6_fault_sensitivity(table, scenario_values):
    from cgquantum.pipeline import CHEVALLEY_SCENARIOS, solve_chevalley
    # (a) the documented transcription fault: coefficient of the top-odd
    # class in the degree-7 product dropped from 3 to 1
    entry = table.basis_product("s5p", "s2")
    broken_entry = entry + SchubertElement(
        {"s7": QPolynomial({0: -2})})
    broken = table.with_entry("s5p", "s2", broken_entry)
    report = verify_table(broken)
    fault_caught = any(c.check_id == "associativity"
                       for c in report.failures())
    # (b) every curve count is load-bearing
    loo_ok = True
    for sid in CHEVALLEY_SCENARIOS:
        partial = {k: v for k, v in scenario_values.items() if k != sid}
        try:
            solve_chevalley(partial)
            loo_ok = False
        except (UnderdeterminedSystem, InconsistentSystem):
            pass
    _report("6 (fault sensitivity)", fault_caught and loo_ok)


def test_criterion_7_classical_limit(table):
    from cgquantum.exactmath import mat_mul
    from cgquantum.spectral import multiplication_matrix
    m = multiplication_matrix(table, SchubertElement.basis("s1"), 0)
    power = [[int(i == j) for j in range(15)] for i in range(15)]
    for _ in range(15):
        power = mat_mul(power, m)
    nilpotent_ok = all(x == 0 for row in power for x in row)
    slices_ok = True
    for i, a in enumerate(LABELS):
        for b in LABELS[i:]:
            x, y = SchubertElement.basis(a), SchubertElement.basis(b)
            got = classical_product(table, x, y)
            want = quantum_product(table, x, y).drop_quantum()
            slices_ok = slices_ok and got == want
    _report("7 (classical limit)", nilpotent_ok and slices_ok)
