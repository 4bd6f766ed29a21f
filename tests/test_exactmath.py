"""Exact rational linear algebra and polynomial arithmetic."""
import gc
import random
from fractions import Fraction

import pytest

from itertools import product

from cgquantum.exactmath import (GradedRing, InconsistentSystem,
                                 NonSquareMatrixError, QPolynomial,
                                 UnderdeterminedSystem, charpoly, determinant,
                                 identity, mat, mat_mul, mat_rank, rat, rref,
                                 solve_linear, zeros)
from cgquantum.presentation import generator_ring


def test_rref_identity_unchanged():
    m = identity(3)
    reduced, rank, pivots = rref(m)
    assert rank == 3
    assert pivots == [0, 1, 2]
    assert reduced == identity(3)


def test_rref_zero_matrix():
    _, rank, pivots = rref(zeros(2, 5))
    assert rank == 0
    assert pivots == []


def test_rref_dependent_rows():
    _, rank, _ = rref(mat([[1, 2], [2, 4]]))
    assert rank == 1


def test_rref_idempotent():
    rng = random.Random(11)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
         for _ in range(4)]
    once, rank1, piv1 = rref(m)
    twice, rank2, piv2 = rref(once)
    assert once == twice
    assert (rank1, piv1) == (rank2, piv2)


def test_solve_identity():
    assert solve_linear(identity(2), [2, 0]) == [rat(2), rat(0)]


def test_solve_affine_equation():
    # 1 + 2x = 3, written as the 1x1 system 2x = 2
    assert solve_linear([[2]], [2]) == [rat(1)]


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystem):
        solve_linear([[1, 1]], [0])


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystem):
        solve_linear([[1, 1], [1, 1]], [0, 1])


def test_charpoly_identity_2x2():
    p = charpoly(identity(2))
    assert p == QPolynomial({2: rat(1), 1: rat(-2), 0: rat(1)}, var="t")


def test_charpoly_diagonal():
    p = charpoly(mat([[3, 0], [0, -1]]))
    assert p == QPolynomial({2: rat(1), 1: rat(-2), 0: rat(-3)}, var="t")


def test_charpoly_nonsquare_rejected():
    with pytest.raises(NonSquareMatrixError):
        charpoly(zeros(2, 3))


def test_cayley_hamilton_random_6x6():
    rng = random.Random(7)
    n = 6
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    p = charpoly(m)
    # evaluate p at the matrix itself by Horner's rule
    acc = zeros(n, n)
    for e in range(p.degree(), -1, -1):
        acc = mat_mul(acc, m)
        c = p.coeff(e)
        if c:
            for i in range(n):
                acc[i][i] += c
    assert all(x == 0 for row in acc for x in row)


def test_rank_matches_rref():
    m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert mat_rank(m) == 2


def test_fraction_round_trip_200_digits():
    num = int("123456789" * 23)
    den = int("987654321" * 22 + "7")
    x = Fraction(num, den)
    assert Fraction(str(x)) == x


def test_qpolynomial_divmod_and_gcd():
    # (q^2 - 1) = (q - 1)(q + 1); gcd with derivative detects the
    # square in (q - 1)^2
    p = QPolynomial({2: rat(1), 0: rat(-1)})
    d = QPolynomial({1: rat(1), 0: rat(-1)})
    quo, rem = p.divmod(d)
    assert rem.is_zero()
    assert quo == QPolynomial({1: rat(1), 0: rat(1)})
    sq = d * d
    g = sq.gcd(sq.derivative())
    assert g.monic() == d


def test_qpolynomial_evaluation_exact():
    p = QPolynomial({3: Fraction(1, 3), 0: Fraction(1, 6)})
    assert p(Fraction(1, 2)) == Fraction(1, 24) + Fraction(1, 6)


@pytest.mark.parametrize("coeffs, starred, spaced", [
    ({15: 1, 11: -1, 3: 1}, "t^15 - 1*t^11 + t^3", "t^15 - t^11 + t^3"),
    ({2: -1, 0: -1}, "-1*t^2 - 1", "-1 t^2 - 1"),
    ({}, "0", "0"),
])
def test_qpolynomial_format_styles(coeffs, starred, spaced):
    p = QPolynomial(coeffs, "t")
    assert p.format("*") == str(p) == starred
    assert p.format(" ") == spaced


def _reference_rref(m):
    """Textbook Gauss-Jordan elimination over Fractions."""
    r = [[Fraction(x) for x in row] for row in m]
    nrows = len(r)
    ncols = len(r[0]) if nrows else 0
    pivots = []
    for col in range(ncols):
        lead = len(pivots)
        piv = next((i for i in range(lead, nrows) if r[i][col]), None)
        if piv is None:
            continue
        r[lead], r[piv] = r[piv], r[lead]
        r[lead] = [x / r[lead][col] for x in r[lead]]
        for i in range(nrows):
            if i != lead and r[i][col]:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
    return r, len(pivots), pivots


def _random_matrix(rng, nrows, ncols):
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows >= 2 and rng.random() < 0.5:
        # a combination of two rows makes the matrix rank-deficient
        a, b = rng.sample(range(nrows), 2)
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows[rng.randrange(nrows)] = [x + f * y
                                      for x, y in zip(rows[a], rows[b])]
    if nrows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def test_rref_matches_reference_elimination():
    rng = random.Random(2024)
    shapes = [(r, c) for r in range(1, 8) for c in range(1, 9)]
    for trial in range(600):
        nrows, ncols = shapes[trial % len(shapes)]
        m = _random_matrix(rng, nrows, ncols)
        before = [row[:] for row in m]
        got = rref(m)
        assert got == _reference_rref(m), m
        assert m == before
        assert all(type(x) is Fraction for row in got[0] for x in row)


def test_rref_integer_and_empty_input():
    assert rref([]) == ([], 0, [])
    m = [[2, 4, 6], [1, 1, 1], [3, 5, 7]]
    assert rref(m) == _reference_rref(m)
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], 0, [])


def _reference_determinant(m):
    """Textbook Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def test_determinant_matches_reference_elimination():
    rng = random.Random(1968)
    for trial in range(600):
        n = trial % 8
        m = _random_matrix(rng, n, n)
        if trial % 3 == 0:
            m = [[int(x * 12) for x in row] for row in m]  # int entries
        before = [row[:] for row in m]
        got = determinant(m)
        assert got == _reference_determinant(m), m
        assert type(got) is Fraction
        assert m == before


def test_determinant_edge_cases():
    assert determinant([]) == 1 and type(determinant([])) is Fraction
    assert determinant([[Fraction(-3, 7)]]) == Fraction(-3, 7)
    assert determinant([[5]]) == 5
    assert determinant(zeros(4, 4)) == 0
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    with pytest.raises(NonSquareMatrixError):
        determinant([[1, 2]])


def _brute_force_monomials(ring, degree):
    """Every exponent tuple of the weighted degree, sorted lexicographically
    descending, which is graded-lex descending within one degree."""
    ranges = [range(degree // d + 1) for d in ring.degrees]
    return sorted((e for e in product(*ranges)
                   if ring.monomial_degree(e) == degree), reverse=True)


@pytest.mark.parametrize("ring", [
    generator_ring(),
    GradedRing(("x",), (1,)),
    GradedRing(("c1", "c2", "d1"), (1, 2, 1)),
    GradedRing(("a", "b", "c", "d"), (3, 1, 2, 5)),
], ids=["quotient-and-pipeline-ring", "one-generator", "chern-ring", "four-generators"])
def test_monomials_match_brute_force(ring):
    for degree in range(21):
        assert ring.monomials(degree) == _brute_force_monomials(ring, degree)
    assert ring.monomials(-1) == []


def test_monomials_leave_no_reference_cycle():
    ring = generator_ring()
    gc.collect()
    gc.disable()
    try:
        ring.monomials(12)
        assert gc.collect() == 0
    finally:
        gc.enable()
