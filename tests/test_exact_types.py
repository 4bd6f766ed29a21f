"""Exact arithmetic stays exact: every coefficient the engine computes is an
int or a Fraction, never a float, and an integral polynomial coefficient is
stored as an int."""
import random
from fractions import Fraction

import pytest

from cgquantum import intersection
from cgquantum.exactmath import GradedRing, MultiPolynomial
from cgquantum.pipeline import (derive_missing_products, derive_presentation,
                                solve_chevalley)
from cgquantum.presentation import (build_graded_basis, expand_in_schubert,
                                    generator_ring, load_giambelli,
                                    standard_relations)
from cgquantum.schubert import load_default_table


def _assert_exact(value, where):
    assert type(value) in (int, Fraction), (where, value)


def _assert_polynomial(p, where):
    assert isinstance(p, MultiPolynomial), where
    for exps, c in p.terms.items():
        _assert_exact(c, (where, exps))
        # an integral coefficient is stored as an int
        assert type(c) is int or c.denominator != 1, (where, exps, c)


def _assert_element(elem, where):
    for label, poly in elem.coeffs.items():
        for e, c in poly.coeffs.items():
            _assert_exact(c, (where, label, e))


@pytest.fixture(scope="module")
def scenario_values():
    return {sid: r.value for sid, r in
            intersection.run_all_scenarios().items()}


def test_derived_presentation_is_exact(scenario_values):
    table = load_default_table()
    derived = derive_presentation(
        table, solve_chevalley(scenario_values),
        derive_missing_products(table, scenario_values))
    _assert_exact(derived.a7, "a7")
    for i, rel in enumerate(derived.quotient.relations):
        _assert_polynomial(rel, ("relation", i))
    for label, poly in derived.giambelli.items():
        _assert_polynomial(poly, label)


def test_standard_relations_are_integral():
    for rel in standard_relations(generator_ring()):
        _assert_polynomial(rel, str(rel))
        assert all(type(c) is int for c in rel.terms.values())


def test_scenario_integrals_are_exact(monkeypatch):
    integrated = []
    integrate = intersection.SpaceModel.integrate

    def recording(space, cls):
        integrated.append(cls)
        return integrate(space, cls)

    monkeypatch.setattr(intersection.SpaceModel, "integrate", recording)
    results = intersection.run_all_scenarios()
    assert integrated
    for i, cls in enumerate(integrated):
        _assert_polynomial(cls, ("integrand", i))
    for sid, res in results.items():
        for value in (res.main, res.correction, res.value):
            _assert_exact(value, sid)


def test_normal_forms_and_expansions_are_exact():
    quotient = build_graded_basis()
    ring = quotient.ring
    giambelli = load_giambelli(ring=ring)
    rng = random.Random(17)
    for _ in range(40):
        p = ring.zero()
        for mono in ring.monomials(rng.randint(0, 16)):
            if rng.random() < 0.5:
                p = p + ring.monomial(mono, Fraction(rng.randint(-9, 9),
                                                     rng.choice((1, 2, 3))))
        _assert_polynomial(p, str(p))
        _assert_polynomial(quotient.normal_form(p), ("normal form", str(p)))
        _assert_element(expand_in_schubert(quotient, giambelli, p), str(p))


def test_coefficients_are_ints_or_fractions_and_coeff_is_a_fraction():
    ring = GradedRing(("x", "y"), (1, 2))
    x, y = ring.gen("x"), ring.gen("y")
    p = (x * x).scale(Fraction(4, 2)) + y.scale(Fraction(1, 3)) \
        + ring.constant("6/3") + ring.monomial((3, 0), True)
    assert {e: (type(c), c) for e, c in p.terms.items()} == {
        (2, 0): (int, 2), (0, 1): (Fraction, Fraction(1, 3)),
        (0, 0): (int, 2), (3, 0): (int, 1)}
    for exps in ((2, 0), (0, 1), (0, 0), (5, 5)):
        assert type(p.coeff(exps)) is Fraction
    assert p.coeff((2, 0)) == 2 and p.coeff((5, 5)) == 0
    halves = p.scale(Fraction(1, 2))
    assert type(halves.terms[2, 0]) is int
    assert type(halves.terms[3, 0]) is Fraction
