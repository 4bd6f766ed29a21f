"""Chern-class calculus on small parameter spaces and the curve-count
scenario catalog."""
import random
from fractions import Fraction

import pytest

from cgquantum.exactmath import GradedRing
from cgquantum.intersection import (EXPECTED, SCENARIO_IDS, FormalBundle,
                                    ScenarioResult, UnknownScenario,
                                    UnsupportedRank,
                                    product_of_lines, projective_space,
                                    quotient_chern, run_all_scenarios,
                                    run_scenario, verify_scenarios)


def test_exterior_square_of_split_rank_3():
    # roots 0, h, hp: the pairwise sums are h, hp, h + hp
    space = product_of_lines(("h", "hp"))
    h, hp = space.ring.gen("h"), space.ring.gen("hp")
    one = space.ring.constant(1)
    b = FormalBundle(space, 3, ((one + h) * (one + hp)).truncate(2))
    got = b.exterior_square()
    want = ((one + h) * (one + hp) * (one + h + hp)).truncate(2)
    assert got.chern == want


def test_exterior_square_of_trivial():
    space = projective_space(3)
    t = FormalBundle.trivial(space, 3)
    assert t.exterior_square().chern == space.ring.constant(1)
    assert t.exterior_square().rank == 3


def test_exterior_square_with_only_c1():
    space = projective_space(3)
    h = space.ring.gen("h")
    b = FormalBundle(space, 3, space.ring.constant(1) + h)
    got = b.exterior_square()
    assert got.chern_class(1) == 2 * h
    assert got.chern_class(2) == h * h  # c1^2 + c2 with c2 = 0


def test_exterior_square_rank_limit():
    # every count takes the exterior square of a rank-3 bundle only
    space = projective_space(4)
    for rank in (4, 2):
        with pytest.raises(UnsupportedRank):
            FormalBundle.trivial(space, rank).exterior_square()


def test_twist_shifts_roots():
    space = product_of_lines(("h1", "h2"))
    h1, h2 = space.ring.gen("h1"), space.ring.gen("h2")
    one = space.ring.constant(1)
    # roots 0, h2, h2 (rank 3, c = (1 + h2)^2 truncated)
    b = FormalBundle(space, 3, ((one + h2) * (one + h2)).truncate(2))
    got = b.twist_by_line(h1)
    want = ((one + h1) * (one + h1 + h2) * (one + h1 + h2)).truncate(2)
    assert got.chern == want


def test_twist_by_zero_is_identity():
    space = projective_space(2)
    h = space.ring.gen("h")
    b = FormalBundle(space, 2, space.ring.constant(1) + h + h * h)
    assert b.twist_by_line(space.ring.zero()).chern == b.chern


def test_twist_line_bundle():
    space = product_of_lines(("x", "y"))
    x, y = space.ring.gen("x"), space.ring.gen("y")
    b = FormalBundle(space, 1, space.ring.constant(1) + x)
    assert b.twist_by_line(y).chern_class(1) == x + y


def test_whitney_sum_and_difference():
    rng = random.Random(3)
    space = product_of_lines(("u", "v", "w"))
    gens = [space.ring.gen(n) for n in ("u", "v", "w")]
    one = space.ring.constant(1)
    for _ in range(10):
        a = one
        b = one
        for g in gens:
            a = a * (one + rng.randint(-2, 2) * g)
            b = b * (one + rng.randint(-2, 2) * g)
        ba = FormalBundle(space, 3, a.truncate(3))
        bb = FormalBundle(space, 3, b.truncate(3))
        total = FormalBundle(space, 6, ba.chern * bb.chern)
        assert total.minus(bb).chern == ba.chern


def test_quotient_chern_inverts_the_denominator_up_to_max_degree():
    def check(numerator, denominator, max_degree):
        got = quotient_chern(numerator, denominator, max_degree)
        assert got.truncate(max_degree) == got
        assert ((got * denominator).truncate(max_degree)
                == numerator.truncate(max_degree))

    # the shape of 4.1.8: a2 has degree 2, c(F) = 1 - a1 + a2, c(E) = 1 + h
    ring = GradedRing(("h", "a1", "a2"), (1, 1, 2))
    h, a1, a2 = (ring.gen(n) for n in ring.names)
    for max_degree in range(6):
        check(ring.one() + h, ring.one() - a1 + a2, max_degree)
    # the shape of 4.1.9: c(F) = (1 - h)(1 - l), c(E) = 1
    ring = GradedRing(("h", "l", "m"), (1, 1, 1))
    h, l = ring.gen("h"), ring.gen("l")
    check(ring.one(), (ring.one() - h) * (ring.one() - l), 6)


def test_projective_space_integration():
    for n in (1, 2, 3, 5):
        space = projective_space(n)
        h = space.ring.gen("h")
        assert space.integrate(h ** n) == 1
        if n > 1:
            assert space.integrate(h ** (n - 1)) == 0


def test_triple_product_count():
    space = product_of_lines(("h1", "h2", "h3"))
    h1, h2, h3 = (space.ring.gen(n) for n in ("h1", "h2", "h3"))
    cls = (h1 + h3) * (h2 + h3) * (h1 + h2 + h3)
    assert space.integrate(cls) == 3


def test_scenario_catalog_values():
    for sid, (main, correction) in EXPECTED.items():
        res = run_scenario(sid)
        assert res.main == main, sid
        assert res.correction == correction, sid
        assert res.value == main - correction


def test_scenario_with_correction():
    res = run_scenario("4.1.8")
    assert (res.main, res.correction, res.value) == (7, 1, 6)


def test_unknown_scenario_rejected():
    with pytest.raises(UnknownScenario):
        run_scenario("9.9.9")


def test_run_all_covers_catalog():
    results = run_all_scenarios()
    assert set(results) == set(SCENARIO_IDS) == set(EXPECTED)
    assert len(results) == 12


def test_verification_report_passes():
    report = verify_scenarios(run_all_scenarios())
    assert report.ok


def test_verification_report_names_a_wrong_count():
    results = run_all_scenarios()
    results["4.1.8"] = ScenarioResult("4.1.8", Fraction(8), Fraction(1))
    report = verify_scenarios(results)
    assert not report.ok
    (failed,) = [c for c in report.checks if not c.passed]
    assert failed.check_id == "scenario_4.1.8"
    assert failed.detail == ("main=8 correction=1 value=7 "
                             "expected main=7 correction=1")
