"""Spectral structure of hyperplane multiplication."""
import json
import os
import random
import sys
from fractions import Fraction
from math import inf

import pytest

from cgquantum.exactmath import clear_denominators, determinant, mat_mul, rat
from cgquantum.schubert import (LABELS, MultiplicationTable, SchubertElement,
                                default_data_dir, load_default_table)
from cgquantum.spectral import (_at, _real_roots, _rounded_root,
                                check_semisimple,
                                conjecture_o_check, covariance_check,
                                galkin_bound_check, isolate_root,
                                multiplication_matrix, nilpotency_index,
                                sigma1_charpoly)

Y_MAX_REFERENCE = 99.00713881372502
T_REFERENCE = 12.6175960332


@pytest.fixture(scope="module")
def table():
    return load_default_table()


@pytest.fixture(scope="module")
def report(table):
    return conjecture_o_check(table)


def test_identity_multiplication_matrix(table):
    m = multiplication_matrix(table, SchubertElement.basis("s0"), 1)
    assert m == [[int(i == j) for j in range(15)] for i in range(15)]
    # an int q keeps the integer table's entries ints; a Fraction q, even
    # an integral one, gives Fractions
    s1 = SchubertElement.basis("s1")
    m = multiplication_matrix(table, s1, 1)
    assert all(type(x) is int for row in m for x in row)
    m = multiplication_matrix(table, s1, Fraction(2, 1))
    nonzero = [x for row in m for x in row if x]
    assert nonzero and all(type(x) is Fraction for x in nonzero)


def test_charpoly_exact(table):
    p = sigma1_charpoly(table, 1)
    assert p.coeffs == {15: rat(1), 11: rat(-102), 7: rat(317),
                        3: rat(-2048)}


def test_classical_operator_nilpotent(table):
    assert nilpotency_index(table, 0) == 9
    m = multiplication_matrix(table, SchubertElement.basis("s1"), 0)
    power = [[int(i == j) for j in range(15)] for i in range(15)]
    from cgquantum.exactmath import mat_mul
    for _ in range(15):
        power = mat_mul(power, m)
    assert all(x == 0 for row in power for x in row)


def test_semisimple_at_q1_not_at_q0(table):
    ok, det = check_semisimple(table, 1)
    assert ok and det != 0
    ok0, det0 = check_semisimple(table, 0)
    assert not ok0 and det0 == 0


def test_trace_form_rank_is_full(table, report):
    assert report.trace_form_nondegenerate


def test_dominant_root_value(report):
    assert report.shape_ok
    assert abs(report.y_max - Y_MAX_REFERENCE) <= 1e-9 * Y_MAX_REFERENCE
    assert report.y_max == _reference_rounded_root(*_cubic_and_bound(report))


def test_reference_decimal_is_near_the_root():
    # exact rational evaluation of the cubic at the published decimal
    y = Fraction(9900713881372502, 10**14)
    residual = y**3 - 102 * y**2 + 317 * y - 2048
    slope = 3 * y**2 - 204 * y + 317
    assert abs(residual) < Fraction(1, 10**6) * abs(slope * y)


def test_at_evaluates_exactly():
    # 6 p for p = q^3 / 3 + 1 / 6, read at q = 1/2 and -1/2 as
    # 2^3 * 6 p(+-1/2)
    six_p = [2, 0, 0, 1]
    assert Fraction(_at(six_p, 1, 2), 6 * 2**3) == \
        Fraction(1, 24) + Fraction(1, 6)
    assert Fraction(_at(six_p, -1, 2), 6 * 2**3) == \
        Fraction(-1, 24) + Fraction(1, 6)


def test_all_flags_true(report):
    assert report.ok
    assert report.dominant_real_simple
    assert report.modulus_set_is_fourth_roots


def test_subdominant_pair_strictly_smaller(report):
    assert 4.5 < report.other_modulus < 4.6
    assert report.other_modulus < report.y_max


def test_spectral_radius_and_strict_bound(table):
    t_cg, bound_ok, _ = galkin_bound_check(table)
    assert abs(t_cg - T_REFERENCE) <= 1e-8
    assert bound_ok
    assert t_cg > 9


def test_boundary_value_would_fail_strictness():
    # equality case of the bound: a bracket pinned at (9/4)^4 must not
    # certify strict dominance
    from cgquantum.spectral import GALKIN_THRESHOLD
    assert not (GALKIN_THRESHOLD > GALKIN_THRESHOLD)
    assert 4 * float(GALKIN_THRESHOLD) ** 0.25 == 9.0


def test_charpoly_scaling_with_q(table):
    assert covariance_check(table, 16)
    p16 = sigma1_charpoly(table, 16)
    assert p16.coeff(11) == -102 * 16
    assert p16.coeff(7) == 317 * 16 ** 2
    assert p16.coeff(3) == -2048 * 16 ** 3


def _value(coeffs, x):
    """The polynomial at x, by Horner's rule in Fractions; coefficients
    are listed from the leading one, as everywhere below."""
    value = Fraction(0)
    for c in coeffs:
        value = value * x + c
    return value


def _fraction_rem(a, b):
    """Remainder of a by b, by long division over Fractions."""
    while len(a) >= len(b):
        f = Fraction(a[0]) / b[0]
        a = [x - f * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
        while a and not a[0]:
            a = a[1:]
    return a


def _fraction_sturm(p):
    """p, p' and the negated remainders, over Fractions."""
    seq = [p, [e * c for e, c in zip(range(len(p) - 1, 0, -1), p)]]
    while seq[-1] and (rem := _fraction_rem(seq[-2], seq[-1])):
        seq.append([-c for c in rem])
    return seq


def _fraction_count(seq, a, b):
    """Distinct real roots in (a, b] of the polynomial whose Fraction
    Sturm sequence seq is."""
    def changes(x):
        signs = [1 if v > 0 else -1 for v in (_value(q, x) for q in seq)
                 if v]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    return changes(a) - changes(b)


def _reference_isolate_root(p, lo, hi, width):
    """Bisection on the Fraction Sturm sequence that evaluates both
    bracket ends at every step."""
    seq = _fraction_sturm(p)
    lo, hi = rat(lo), rat(hi)
    if _fraction_count(seq, lo, hi) != 1:
        raise ValueError("bracket does not isolate a single root")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _fraction_count(seq, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _reference_rounded_root(p, lo, hi):
    """The Fraction bisection run on until both bracket ends round to the
    same float: enough for a root that is no tie between two floats."""
    for _ in range(200):
        if float(lo) == float(hi):
            return float(lo)
        lo, hi = _reference_isolate_root(p, lo, hi, (hi - lo) / 2)
    raise AssertionError("the bracket ends still round apart")


def _cubic_and_bound(report):
    """The report's monic cubic f, leading first, and the bracket (0,
    Cauchy bound] that holds its real roots."""
    f = [report.char_poly.coeff(e) for e in (15, 11, 7, 3)]
    return f, 0, 1 + max(abs(c) for c in f[1:])


def _random_cubic(rng):
    """Fraction coefficients, leading first, and the roots if known."""
    def r():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    if rng.random() < 0.4:
        # rational roots, some repeated, so bracket ends can hit a root
        roots = [r() for _ in range(3)]
        if rng.random() < 0.5:
            roots[1] = roots[0]
            if rng.random() < 0.4:
                roots[2] = roots[0]
        a, (x0, x1, x2) = Fraction(rng.choice([1, -2, Fraction(3, 5)])), roots
        # a (y - x0)(y - x1)(y - x2), written out
        return [a, -a * (x0 + x1 + x2), a * (x0 * x1 + x0 * x2 + x1 * x2),
                -a * x0 * x1 * x2], roots
    lead = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    c0, c1, c2 = [r() for _ in range(3)]
    return [lead, c2, c1, c0], []


def _repeated_root_in(p, lo, hi):
    """Whether the root of the cubic p in (lo, hi] is a double one: by the
    Fraction Sturm sequence, whose last member is gcd(p, p') up to a
    constant, y - r for a double root r and (y - r)^2 for a triple one."""
    g = _fraction_sturm(p)[-1]
    return len(g) == 2 and lo < -g[1] / g[0] <= hi


def test_isolate_root_matches_per_step_reference():
    # isolate_root reads only p's sign, so it is compared where the one
    # root in the bracket has odd multiplicity and p changes sign there
    rng = random.Random(1829)
    compared, seen = 0, set()
    while compared < 200:
        p, roots = _random_cubic(rng)
        ends = [Fraction(rng.randint(-60, 60), rng.randint(1, 7))
                for _ in range(2)]
        if roots and rng.random() < 0.5:
            ends[rng.randrange(2)] = rng.choice(roots)
        lo, hi = sorted(ends)
        width = Fraction(1, rng.choice([1, 3, 10]) ** rng.randint(0, 8))
        if rng.random() < 0.3:
            # a width the bisection reaches exactly
            width = abs(hi - lo) / 2 ** rng.randint(0, 12)
        try:
            want = _reference_isolate_root(p, lo, hi, width)
        except ValueError:
            continue
        if _repeated_root_in(p, lo, hi):
            continue
        got = isolate_root(clear_denominators(p)[0], lo, hi, width)
        assert got == want, (p, lo, hi, width)
        assert all(type(x) is Fraction for x in got)
        compared += 1
        seen |= {hi in roots and "root at hi",
                 roots.count(hi) == 3 and "triple root at hi",
                 len(_fraction_sturm(p)[-1]) == 3 and "triple root"}
    assert seen >= {"root at hi", "triple root at hi", "triple root"}


def test_real_root_count_matches_fraction_sturm():
    # the report's f: a cubic made monic, times the lcm of its denominators
    rng = random.Random(4417)
    seen = set()
    for _ in range(2000):
        p, _ = _random_cubic(rng)
        monic = [c / p[0] for c in p]
        ints = clear_denominators(monic)[0]
        seq = _fraction_sturm(monic)
        bound = 1 + max(abs(c) for c in monic[1:])
        n_real = _fraction_count(seq, -bound, bound)
        assert _real_roots(ints) == n_real, p
        if n_real == 1:
            positive = _fraction_count(seq, 0, bound) == 1
            assert (ints[3] < 0) is positive, p
            seen.add(not positive and "non-positive root")
        g = seq[-1]
        seen |= {n_real == 3 and "disc > 0",
                 n_real == 1 and len(g) == 1 and "disc < 0",
                 len(g) == 2 and "double root", len(g) == 3 and "triple root",
                 p[0] < 0 and "negative lead",
                 abs(p[0]) != 1 and "non-unit lead"}
    assert seen >= {"disc > 0", "disc < 0", "double root", "triple root",
                    "non-positive root", "negative lead", "non-unit lead"}


@pytest.mark.parametrize("f", [
    [1, 0, 1, 0], [1, 0, 0, 0], [1, -6, 12, -8], [1, -1, -1, 1],
    [1, -6, 11, -6], [1, Fraction(-1, 2), 1, Fraction(-1, 2)],
], ids=["root-at-0", "triple-at-0", "triple-at-2", "double", "three",
        "simple-at-1/2"])
def test_report_follows_the_fraction_reference(table, monkeypatch, f):
    # the charpoly replaced by t^3 f(t^4) for a monic f that no table
    # change reaches; the notes, the bracket and y_max must be the ones
    # the Fraction Sturm sequence gives
    from cgquantum import spectral
    from cgquantum.exactmath import QPolynomial
    f = [Fraction(c) for c in f]
    monkeypatch.setattr(spectral, "sigma1_charpoly", lambda t, q: (
        QPolynomial(dict(zip((15, 11, 7, 3), f)), "t")))
    report = conjecture_o_check(table)
    seq = _fraction_sturm(f)
    bound = 1 + max(abs(c) for c in f[1:])
    n_real = _fraction_count(seq, -bound, bound)
    if n_real != 1:
        want = [f"cubic has {n_real} real roots, expected 1 "
                "(one real plus a complex pair)"]
    elif _fraction_count(seq, 0, bound) != 1:
        want = ["the real root of the cubic is not positive"]
    else:
        want = []
        lo, hi = _reference_isolate_root(f, 0, bound, Fraction(1, 10**14))
        assert report.y_max_bracket == (lo, hi)
        assert report.y_max == _reference_rounded_root(f, lo, hi)
    assert report.notes == want


def _table_with(mutate):
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    rec = next(r for r in raw["products"] if (r["a"], r["b"]) == ("s1", "s1"))
    mutate(rec["terms"])
    return MultiplicationTable.from_dict(raw)


def _s2_coefficient(value):
    def mutate(terms):
        next(t for t in terms if t["label"] == "s2")["coeff"] = value
    return mutate


@pytest.mark.parametrize("mutate, note", [
    (lambda terms: terms.append({"label": "s1", "q": 0, "coeff": 1}),
     "characteristic polynomial does not have the t^3 * f(t^4) shape"),
    (_s2_coefficient(-4),
     "cubic has 3 real roots, expected 1 (one real plus a complex pair)"),
    (_s2_coefficient(-5), "the real root of the cubic is not positive"),
], ids=["shape", "three-real-roots", "no-positive-root"])
def test_trace_form_is_computed_on_every_path(mutate, note):
    # each table stops the cubic's checks early; the trace form does not
    # depend on the cubic and must still be computed
    table = _table_with(mutate)
    report = conjecture_o_check(table)
    assert report.notes == [note]
    assert not report.dominant_real_simple
    assert report.trace_form_nondegenerate is check_semisimple(table, 1)[0]
    assert report.trace_form_nondegenerate


def test_covariance_check_with_and_without_the_q1_polynomial(table):
    # an off-grade q * s2 term in s1 * s1 breaks the scaling
    broken = _table_with(lambda terms: terms.append(
        {"label": "s2", "q": 1, "coeff": 1}))
    for t, want in ((table, True), (broken, False)):
        assert covariance_check(t, 16) is want
        assert covariance_check(t, 16, sigma1_charpoly(t, 1)) is want


def _term_mutants(seed, count, deltas=(1, -1)):
    """Seeded mutants of terms in the products s1 * x, which are the
    entries the s1 matrix reads, each term changed by one of the deltas,
    as (name, table)."""
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        raw = json.load(fh)
    sites = [(p, t, d) for p, rec in enumerate(raw["products"])
             if "s1" in (rec["a"], rec["b"])
             for t in range(len(rec["terms"])) for d in deltas]
    out = []
    for p, t, d in random.Random(seed).sample(sites, count):
        term = raw["products"][p]["terms"][t]
        term["coeff"] += d
        out.append((f"{p}.{t}{'+' if d > 0 else ''}{d}",
                    MultiplicationTable.from_dict(raw)))
        term["coeff"] -= d
    return out


def _fraction_table():
    # s1 * s1 = 3/2 s2 + ...: D = 2 at q = 1
    return _table_with(_s2_coefficient("3/2"))


@pytest.mark.parametrize("s2", ["3/2", "1/3"])
def test_cubic_with_denominators_matches_fraction_bisection(s2):
    # D > 1: the integer cubic is D^k times the Fraction one, and the
    # bracket must be the one a bisection of the Fraction cubic gives
    from test_exactmath import _reference_charpoly
    table = _table_with(_s2_coefficient(s2))
    cp = _reference_charpoly(multiplication_matrix(
        table, SchubertElement.basis("s1"), 1))
    f = [cp.coeff(e) for e in (15, 11, 7, 3)]
    assert any(c.denominator > 1 for c in f)
    bound = 1 + max(abs(c) for c in f[1:])
    report = conjecture_o_check(table)
    assert report.y_max_bracket == _reference_isolate_root(
        f, 0, bound, Fraction(1, 10**14))
    assert report.ok


def test_y_max_is_the_rounded_root_on_mutants(table):
    checked = 0
    for name, t in [("shipped", table)] + _term_mutants(
            2075, 24, (1, -1, Fraction(1, 2), Fraction(-1, 3), 100)):
        report = conjecture_o_check(t)
        if report.y_max_bracket[1]:  # a positive root was isolated
            checked += 1
            assert report.y_max == _reference_rounded_root(
                *_cubic_and_bound(report)), name
    assert checked > 12, checked


@pytest.mark.parametrize("root, b, want", [
    # the Cauchy bound is exactly 4 * root, so the second bisection step
    # lands on the root, which lies halfway between two floats
    (Fraction(1, 2) + Fraction(3, 2**54), 1 + Fraction(3, 2**52),
     float.fromhex("0x1.0000000000002p-1")),
    # a tie off the bisection grid: the bound 2^53 + 2 has the odd factor
    # 2^52 + 1, which does not divide the root
    (2**53 + 1, 1, 2.0**53),
    # the least value that rounds to inf is a tie, and inf takes it
    (2**1024 - 2**970, 1, inf),
    (2**1024 - 2**970 - 1, 1, sys.float_info.max),
    (10**400, 1, inf),
    (Fraction(1, 10**330), 1, 0.0),
], ids=["tie-on-grid", "tie-off-grid", "tie-at-inf", "largest-float",
        "past-largest-float", "below-least-subnormal"])
def test_rounded_root_ties_and_range_ends(root, b, want):
    # (y - root)(y^2 + b): one real root, bracketed by the Cauchy bound
    p = [1, -root, b, -root * b]
    bound = 1 + max(abs(Fraction(c)) for c in p[1:])
    ints = clear_denominators(p)[0]
    if b != 1:  # b = 4 * root - 1
        assert bound == 4 * root
        assert isolate_root(ints, 0, bound, root) == (0, root)
    got = _rounded_root(ints, 0, bound)
    assert got == want and type(got) is float
    assert str(got) == str(want)  # 0.0, not -0.0


def test_rounded_root_is_the_one_in_the_bracket():
    # lo = 1 + 2^-53 is a root too, and the tie halfway between the
    # floats that lo and hi round to; the root in (lo, hi] is 1 + 2^-52
    lo, root = 1 + Fraction(1, 2**53), 1 + Fraction(1, 2**52)
    ints = clear_denominators([1, -(lo + root), lo * root])[0]
    assert _rounded_root(ints, lo, root + Fraction(1, 2**60)) == float(root)


def _reference_nilpotency_index(table, q_value):
    """Powers of the s1 matrix itself, as multiplication_matrix builds it
    at q_value."""
    m = multiplication_matrix(table, SchubertElement.basis("s1"), q_value)
    power = m
    for k in range(1, 16):
        if not any(x for row in power for x in row):
            return k
        power = mat_mul(power, m)
    return 0


def test_sigma1_charpoly_matches_fraction_reference(table):
    from test_exactmath import _reference_charpoly

    def off_grade_huge(terms):
        terms.append({"label": "s1", "q": 0, "coeff": 1})
        _s2_coefficient(10**400)(terms)

    # the two off-grade tables run the 15x15 matrix through charpoly's
    # loop, on Fractions at 7/9 and 1/2
    tables = [("shipped", table), ("fraction", _fraction_table()),
              ("shape", _shape_table()),
              ("shape-10^400", _table_with(off_grade_huge))]
    tables += _term_mutants(8, 4)
    for name, t in tables:
        for q in (0, 1, 2, Fraction(7, 9), -3, 16, Fraction(1, 2)):
            m = multiplication_matrix(t, SchubertElement.basis("s1"), q)
            got = sigma1_charpoly(t, q)
            assert got.coeffs == _reference_charpoly(m).coeffs, (name, q)
            assert got.var == "t"
            assert all(type(c) is Fraction for c in got.coeffs.values())
        for q in (0, 1):
            assert nilpotency_index(t, q) == \
                _reference_nilpotency_index(t, q), (name, q)


def _reference_gram(table, q_value):
    """B(e_i, e_j) = trace(mult by e_i e_j), each of the 225 entries from
    its own product."""
    qv, tensor, n = rat(q_value), table.tensor, len(LABELS)
    trace = [sum(c * qv ** e for j in range(n)
                 for (k, e), c in tensor[i][j].items() if k == j)
             for i in range(n)]
    return [[sum(c * qv ** e * trace[k] for (k, e), c in tensor[i][j].items())
             for j in range(n)] for i in range(n)]


def _shape_table():
    # an s1 term in s1 * s1 is off grade: the s1 matrix maps V1 into V1,
    # and the Gram matrix pairs s0 with s1
    return _table_with(lambda terms: terms.append(
        {"label": "s1", "q": 0, "coeff": 1}))


def test_trace_form_gram_matches_the_entrywise_formula(table, monkeypatch):
    # on a graded table determinant receives only the blocks V0 x V0,
    # V2 x V2 and V1 x V3 of the Gram matrix; then every reference entry
    # outside them and V3 x V1 = (V1 x V3)^T must be zero, so that all 225
    # entries are compared on either path
    from cgquantum import spectral
    from cgquantum.spectral import _V
    grams = []
    monkeypatch.setattr(spectral, "determinant",
                        lambda m: grams.append(m) or determinant(m))
    blocks = [(0, 0), (2, 2), (1, 3)]
    tables = [("shipped", table), ("fraction", _fraction_table()),
              ("shape", _shape_table())]
    tables += _term_mutants(10, 6)
    paths = set()
    for name, t in tables:
        for q in (0, 1, 16, Fraction(7, 9)):
            grams.clear()
            got = check_semisimple(t, q)
            want = _reference_gram(t, q)
            paths.add(len(grams))
            if len(grams) == 1:
                assert grams == [want], (name, q)
            else:
                assert grams == [[[want[i][j] for j in _V[s]] for i in _V[r]]
                                 for r, s in blocks], (name, q)
                inside = {(i, j) for r, s in blocks for i in _V[r]
                          for j in _V[s]}
                for i, row in enumerate(want):
                    for j, x in enumerate(row):
                        if (j, i) in inside:
                            assert x == want[j][i], (name, q, i, j)
                        elif (i, j) not in inside:
                            assert x == 0, (name, q, i, j)
            assert got == (determinant(want) != 0, determinant(want))
    assert paths == {1, 3}


def _all_term_mutants(table):
    """Every term of the table changed by +1 and by -1, a zero dropped, as
    (name, table): 594 tables on the shipped one, each as graded as it."""
    out = []
    for key, terms in table.constants.items():
        for term, c in terms.items():
            for d in (1, -1):
                changed = {t: x for t, x in {**terms, term: c + d}.items() if x}
                out.append((f"{key}:{term}{d:+d}", MultiplicationTable(
                    {**table.constants, key: changed})))
    return out


def test_block_paths_match_the_general_kernels(table, monkeypatch):
    # the sizes of the matrices that charpoly and determinant receive tell
    # the path: the 3x3 P and the blocks 5, 4, 3 on a graded table, the
    # 15x15 matrices otherwise; with every entry counted as off grade
    # both functions take the 15x15 kernels on the same matrices
    from cgquantum import spectral
    sizes = []
    for kernel in ("charpoly", "determinant"):
        monkeypatch.setattr(spectral, kernel, lambda m, f=getattr(
            spectral, kernel): sizes.append(len(m)) or f(m))

    def run(t, q):
        sizes.clear()
        got = repr((sigma1_charpoly(t, q).coeffs, check_semisimple(t, q)))
        return got, sizes[:]

    def general(t, q):
        with monkeypatch.context() as m:
            m.setattr(spectral, "_OFF_S1", spectral._PAIRS)
            m.setattr(spectral, "_OFF_GRAM", spectral._PAIRS)
            return run(t, q)

    mutants = _all_term_mutants(table)
    assert len(mutants) == 594
    qs = (0, 16, Fraction(7, 9), -3, Fraction(1, 2))
    cases = [(name, t, q) for name, t in [("shipped", table), (
        "fraction", _fraction_table())] for q in (1,) + qs]
    cases += [(name, t, 1) for name, t in mutants]
    cases += [(name, t, q) for name, t in random.Random(2121).sample(
        mutants, 8) for q in qs]
    for name, t, q in cases:
        got, path = run(t, q)
        want, general_path = general(t, q)
        assert (path, general_path) == ([3, 5, 4, 3], [15, 15]), (name, q)
        assert got == want, (name, q)
    shape = _shape_table()
    for q in (1,) + qs:
        got = run(shape, q)
        assert got[1] == [15, 15], q
        assert got == general(shape, q), q


def test_galkin_reports_match_the_fraction_charpoly(table, monkeypatch):
    from test_exactmath import _reference_charpoly
    from cgquantum import spectral
    tables = [("shipped", table), ("fraction", _fraction_table()),
              ("three-real-roots", _table_with(_s2_coefficient(-4))),
              ("shape", _shape_table())]
    tables += _term_mutants(9, 6)
    got = [galkin_bound_check(t) for _, t in tables]
    monkeypatch.setattr(spectral, "sigma1_charpoly", lambda t, q: (
        _reference_charpoly(multiplication_matrix(
            t, SchubertElement.basis("s1"), q))))
    for (name, t), (t_cg, bound_ok, report) in zip(tables, got):
        want_t, want_ok, want = galkin_bound_check(t)
        assert (t_cg, bound_ok) == (want_t, want_ok), name
        assert report.to_dict() == want.to_dict(), name
