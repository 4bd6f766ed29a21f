"""Exact rational linear algebra and polynomial arithmetic."""
import gc
import random
from fractions import Fraction

import pytest

from itertools import product

from cgquantum.exactmath import (GradedRing, InconsistentSystem,
                                 NonSquareMatrixError, QPolynomial,
                                 UnderdeterminedSystem, charpoly,
                                 clear_denominators, determinant, mat_mul,
                                 parse_rational, rat, rref_int, solve_linear,
                                 solve_rows)
from cgquantum.presentation import generator_ring


def test_rref_identity_unchanged():
    reduced, pivots = rref_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert len(pivots) == 3
    assert pivots == [0, 1, 2]
    assert reduced == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_zero_matrix():
    _, pivots = rref_int([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])
    assert len(pivots) == 0
    assert pivots == []


def test_rref_dependent_rows():
    _, pivots = rref_int([[1, 2], [2, 4]])
    assert len(pivots) == 1


def test_rref_idempotent():
    rng = random.Random(11)
    m = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
    once, piv1 = rref_int(m)
    twice, piv2 = rref_int([row[:] for row in once])
    assert once == twice
    assert (len(piv1), piv1) == (len(piv2), piv2)


def test_solve_identity():
    assert solve_linear([[1, 0], [0, 1]], [2, 0]) == [rat(2), rat(0)]


def test_solve_affine_equation():
    # 1 + 2x = 3, written as the 1x1 system 2x = 2
    assert solve_linear([[2]], [2]) == [rat(1)]


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystem):
        solve_linear([[1, 1]], [0])


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystem):
        solve_linear([[1, 1], [1, 1]], [0, 1])


def test_solve_rows_unique_with_two_right_hand_sides():
    # x + y = (3, 1), x - y = (1, 5): x = (2, 3), y = (1, -2)
    rows = solve_rows([[1, 1, 3, 1], [1, -1, 1, 5]], 2)
    assert [[Fraction(x, row[i]) for x in row[2:]]
            for i, row in enumerate(rows)] == [[2, 3], [1, -2]]
    # row i holds A's pivot i, and no other column of A
    assert [[bool(x) for x in row[:2]] for row in rows] == [[True, False],
                                                            [False, True]]


@pytest.mark.parametrize("rows, n, error, message", [
    # B's first column has a pivot, though A's rank is short
    ([[1, 1, 0, 0], [1, 1, 1, 0]], 2, InconsistentSystem, "no solution"),
    # A's rank is short and B's first column free: a pivot in a later
    # column of B does not decide
    ([[1, 1, 0, 0], [1, 1, 0, 1]], 2, UnderdeterminedSystem,
     "solution not unique"),
    # A has full rank, and a later column of B has a pivot
    ([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 2, 1]], 2, InconsistentSystem,
     "no solution"),
    # no rows
    ([], 2, UnderdeterminedSystem, "solution not unique"),
])
def test_solve_rows_failures(rows, n, error, message):
    with pytest.raises(error) as info:
        solve_rows(rows, n)
    assert str(info.value) == message


def test_solve_rows_with_no_rows_and_no_unknowns():
    assert solve_rows([], 0) == []


def test_charpoly_identity_2x2():
    p = charpoly([[1, 0], [0, 1]])
    assert p.coeffs == {2: rat(1), 1: rat(-2), 0: rat(1)}


def test_charpoly_diagonal():
    p = charpoly([[3, 0], [0, -1]])
    assert p.coeffs == {2: rat(1), 1: rat(-2), 0: rat(-3)}


def test_charpoly_nonsquare_rejected():
    with pytest.raises(NonSquareMatrixError):
        charpoly([[0, 0, 0], [0, 0, 0]])


def test_cayley_hamilton_random_6x6():
    rng = random.Random(7)
    n = 6
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    p = charpoly(m)
    # evaluate p at the matrix itself by Horner's rule
    acc = [[0] * n for _ in range(n)]
    for e in range(p.degree(), -1, -1):
        acc = mat_mul(acc, m)
        c = p.coeff(e)
        if c:
            for i in range(n):
                acc[i][i] += c
    assert all(x == 0 for row in acc for x in row)


def test_rank_matches_rref():
    _, pivots = rref_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert len(pivots) == 2


def test_fraction_round_trip_200_digits():
    num = int("123456789" * 23)
    den = int("987654321" * 22 + "7")
    x = Fraction(num, den)
    assert Fraction(str(x)) == x


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


def _divided(reduced, pivots, m):
    """rref_int's rows, each divided by its pivot and padded with zero rows
    to the shape of m, as (rows, rank, pivots) like _reference_rref(m)."""
    rows = [[Fraction(x, row[col]) for x in row]
            for row, col in zip(reduced, pivots)]
    rows += [[Fraction(0)] * len(row) for row in m[len(pivots):]]
    return rows, len(pivots), pivots


def test_rref_matches_reference_elimination():
    rng = random.Random(2024)
    shapes = [(r, c) for r in range(1, 8) for c in range(1, 9)]
    for trial in range(600):
        nrows, ncols = shapes[trial % len(shapes)]
        m = _random_matrix(rng, nrows, ncols)
        # scaling a row by the lcm of its denominators keeps its span
        rows = [clear_denominators(row)[0] for row in m]
        before = [row[:] for row in rows]
        reduced, pivots = rref_int(list(rows))
        assert _divided(reduced, pivots, m) == _reference_rref(m), m
        # the rows passed in are replaced, never written into
        assert rows == before
        assert all(type(x) is int for row in reduced for x in row)


def test_rref_integer_and_empty_input():
    assert rref_int([]) == ([], [])
    m = [[2, 4, 6], [1, 1, 1], [3, 5, 7]]
    assert _divided(*rref_int([row[:] for row in m]), m) == _reference_rref(m)
    assert rref_int([[0, 0], [0, 0]]) == ([], [])


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
    assert determinant([[Fraction(0)] * 4 for _ in range(4)]) == 0
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


def _reference_charpoly(m):
    """Textbook Faddeev-LeVerrier over Fractions: M_0 = 0, c_0 = 1,
    M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    coeffs, mk, ck = {n: Fraction(1)}, [[Fraction(0)] * n for _ in a], 1
    for k in range(1, n + 1):
        step = [row[:] for row in mk]
        for i in range(n):
            step[i][i] += ck
        mk = [[Fraction(0)] * n for _ in a]
        for i, t in product(range(n), range(n)):
            if a[i][t]:
                for j in range(n):
                    if step[t][j]:
                        mk[i][j] += a[i][t] * step[t][j]
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
    return QPolynomial(coeffs, "t")


def _random_square(rng, n, kind):
    def entry():
        if kind == "int":
            return rng.randint(-9, 9)
        if kind == "big":
            return rng.choice([-1, 1]) * rng.randrange(10**29, 10**30)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return x if kind == "fraction" or rng.random() < 0.5 else int(x)
    m = [[entry() if rng.random() < 0.6 else 0 for _ in range(n)]
         for _ in range(n)]
    if n >= 2 and rng.random() < 0.4:
        # one row the sum of two others: singular
        a, b = rng.sample(range(n), 2)
        m[rng.randrange(n)] = [x + y for x, y in zip(m[a], m[b])]
    return m


def _nilpotent(rng, n):
    """A strictly upper triangular matrix with its basis permuted."""
    perm = rng.sample(range(n), n)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[perm[i]][perm[j]] = rng.randint(-4, 4)
    return m


def test_charpoly_matches_fraction_reference():
    rng = random.Random(4242)
    cases = [[], [[0]], [[7]], [[Fraction(-3, 5)]], [[10**29 + 7]],
             [[Fraction(0)] * 5 for _ in range(5)],
             [[0] * 4 for _ in range(4)]]
    for trial in range(60):
        n = 1 + trial % 7
        kind = ("int", "fraction", "mixed", "big")[trial % 4]
        cases.append(_random_square(rng, n, kind))
        if trial % 6 == 0:
            cases.append(_nilpotent(rng, n))
    for m in cases:
        before = [row[:] for row in m]
        got = charpoly(m)
        assert got.coeffs == _reference_charpoly(m).coeffs, m
        assert got.var == "t"
        assert all(type(c) is Fraction for c in got.coeffs.values())
        assert m == before
    assert charpoly([]).coeffs == {0: 1}
    assert charpoly([[0] * 4 for _ in range(4)]).coeffs == {4: 1}


def test_integer_input_stays_on_ints(monkeypatch):
    from cgquantum import exactmath
    rng = random.Random(77)
    a, b = _random_square(rng, 6, "int"), _random_square(rng, 6, "int")
    assert all(type(x) is int for row in mat_mul(a, b) for x in row)
    # a zero entry is the int 0 whatever the input; others follow it
    half = [[Fraction(1, 2), 0], [0, 0]]
    assert mat_mul(half, half) == [[Fraction(1, 4), 0], [0, 0]]
    assert [type(x) for row in mat_mul(half, half) for x in row] == \
        [Fraction, int, int, int]
    seen = []

    def recorded(x, y):
        out = mat_mul(x, y)
        seen.append(out)
        return out

    made = []

    def polynomial(coeffs, var):
        made.append(coeffs)
        return QPolynomial(coeffs, var)

    monkeypatch.setattr(exactmath, "mat_mul", recorded)
    monkeypatch.setattr(exactmath, "QPolynomial", polynomial)
    for n in (1, 4, 9):
        # M_1 = A needs no product, and each later M_k one: an integer
        # matrix keeps every product and every coefficient on ints
        m = _random_square(rng, n, "int")
        charpoly(m)
        assert len(seen) == n - 1
        assert all(type(x) is int for out in seen for row in out for x in row)
        assert [type(c) for c in made.pop().values()] == [int] * (n + 1)
        seen.clear()
        # a Fraction matrix runs the same loop
        charpoly(_random_square(rng, n, "fraction"))
        assert len(seen) == n - 1
        seen.clear()



def test_packed_charpoly_matches_fraction_reference(monkeypatch):
    # integer matrices whose coefficients outgrow a machine word: the
    # int-only loop must agree with the Fraction reference and stay on ints
    from cgquantum import exactmath
    made = []

    def polynomial(coeffs, var):
        made.append(coeffs)
        return QPolynomial(coeffs, var)

    monkeypatch.setattr(exactmath, "QPolynomial", polynomial)
    rng = random.Random(2718)
    cases = [[[0]], [[-5]], [[10 ** 29]], [[0] * 15 for _ in range(15)],
             [[-9] * 15 for _ in range(15)],
             [[10 ** 29 - 1, -10 ** 29], [10 ** 29, 10 ** 29 + 1]],
             # -I: c_k = binomial(15, k)
             [[-int(i == j) for j in range(15)] for i in range(15)]]
    for n in (2, 3, 6, 10, 15):
        cases += [
            _nilpotent(rng, n),
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
            [[-rng.randint(1, 9) for _ in range(n)] for _ in range(n)],
            [[rng.choice([-1, 1]) * rng.randrange(10 ** 29)
              if rng.random() < 0.3 else 0 for _ in range(n)]
             for _ in range(n)],
            # about two nonzeros a row, as in the s1 matrix
            [[rng.randint(1, 3) if rng.random() < 2 / n else 0
              for _ in range(n)] for _ in range(n)],
        ]
    for m in cases:
        got = charpoly(m)
        raw = made.pop()
        assert sorted(raw) == list(range(len(m) + 1))
        assert all(type(c) is int for c in raw.values())
        assert got.coeffs == QPolynomial(raw, "t").coeffs
        assert got.coeffs == _reference_charpoly(m).coeffs, m

@pytest.mark.parametrize("text, want", [
    ("12", Fraction(12)), ("-3/4", Fraction(-3, 4)), ("0.5", Fraction(1, 2)),
    (" 7 ", Fraction(7)), (".25", Fraction(1, 4)),
])
def test_parse_rational_takes_integers_fractions_and_plain_decimals(text,
                                                                     want):
    assert parse_rational(text) == want == rat(text)


@pytest.mark.parametrize("text", ["1e5000", "1E3", "2.5e-1", "1e100000"])
def test_parse_rational_refuses_an_exponent_part(text):
    # checked before Fraction sees the string, which would build
    # 10**100000 in full
    with pytest.raises(ValueError, match="exponent part"):
        parse_rational(text)
