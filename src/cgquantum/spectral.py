"""Spectral checks on quantum multiplication: characteristic polynomial,
semisimplicity via the trace form, dominant-eigenvalue structure, and the
spectral-radius lower bound.

Root isolation and the strict inequalities are exact; no float decides a
check.  y_max prints as the float nearest the isolated root, and T and the
complex pair's modulus as floats taken from y_max and its exact bracket.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf

from .exactmath import (Matrix, QPolynomial, charpoly, clear_denominators,
                        determinant, mat_mul, rat)
from .schubert import DEGREES, LABELS, MultiplicationTable, SchubertElement

# V_r holds the classes of degree r mod 4.  On a graded table the s1 matrix
# is zero at (k, j) with deg k != deg j + 1, and the Gram matrix at (i, j)
# with deg i + deg j != 0, mod 4.
_GRADE = [DEGREES[label] % 4 for label in LABELS]
_V = [[i for i, g in enumerate(_GRADE) if g == r] for r in range(4)]
_PAIRS = [(i, j) for i in range(len(LABELS)) for j in range(len(LABELS))]
_OFF_S1 = [(k, j) for k, j in _PAIRS if (_GRADE[k] - _GRADE[j] - 1) % 4]
_OFF_GRAM = [(i, j) for i, j in _PAIRS if (_GRADE[i] + _GRADE[j]) % 4]
_S1 = SchubertElement.basis("s1")


def _block(m: Matrix, r: int, s: int) -> Matrix:
    """The block of m with rows in V_r and columns in V_s."""
    return [[m[i][j] for j in _V[s]] for i in _V[r]]


def multiplication_matrix(table: MultiplicationTable, x: SchubertElement,
                          q_value) -> Matrix:
    """15x15 matrix of quantum multiplication by x with q specialized,
    columns indexed by the basis in label order: entry (k, j) is the
    coefficient of basis k in x * basis j; ints at an int q_value on an
    integer table and x; any other q_value goes through rat."""
    qv = q_value if isinstance(q_value, int) else rat(q_value)
    n = len(LABELS)
    m = [[0] * n for _ in range(n)]
    for (i, ex), cx in x.terms().items():
        for j in range(n):
            for (k, e), c in table.tensor[i][j].items():
                m[k][j] += cx * c * qv ** (ex + e)
    return m


def _exact_q(q_value):
    """q_value as an int when integral, so that ints stay ints."""
    qv = rat(q_value)
    return qv.numerator if qv.denominator == 1 else qv


def check_semisimple(table: MultiplicationTable, q_value) -> tuple[bool, Fraction]:
    """Trace-form criterion: the algebra at the given q is semisimple iff
    the Gram matrix B(e_i, e_j) = trace(mult by e_i e_j) has full rank.
    Returns (semisimple, exact Gram determinant).  Where B is zero at every
    deg i + deg j != 0 mod 4, as on a graded table, B in the order V0, V2,
    V1, V3 is diag(B_00, B_22, [[0, B_13], [B_13^T, 0]]), B_13 3x3, so det B
    = -det(B_00) det(B_22) det(B_13)^2; elsewhere B is taken whole."""
    qv, n = _exact_q(q_value), len(LABELS)
    qpow = {e: qv ** e for terms in table.constants.values() for _, e in terms}
    # trace of multiplication by each basis class, in one pass: s_k in
    # s_i s_j adds to the trace of s_i if k = j, and of s_j if k = i != j
    trace = [0] * n
    for (i, j), terms in table.constants.items():
        for (k, e), c in terms.items():
            if k == j or k == i:
                trace[i if k == j else j] += c * qpow[e]
    # B is symmetric: one entry per product s_i s_j
    gram = [[0] * n for _ in range(n)]
    for (i, j), terms in table.constants.items():
        b = 0
        for (k, e), c in terms.items():
            if trace[k]:
                b += c * qpow[e] * trace[k]
        gram[i][j] = gram[j][i] = b
    if any(gram[i][j] for i, j in _OFF_GRAM):
        det = determinant(gram)
    else:
        det = -determinant(_block(gram, 0, 0)) * determinant(
            _block(gram, 2, 2)) * determinant(_block(gram, 1, 3)) ** 2
    return det != 0, det


def sigma1_charpoly(table: MultiplicationTable, q_value) -> QPolynomial:
    """Characteristic polynomial of multiplication by s1 at q_value.  Where
    its matrix M is zero at every deg k != deg j + 1 mod 4, as on a graded
    table, M maps V_r into V_(r+1), and det(t - M) = t^3 det(t^4 - P) for
    the 3x3 P = M^4 on V1, the product of M's blocks around the cycle;
    elsewhere the 15x15 charpoly of M is taken."""
    m = multiplication_matrix(table, _S1, _exact_q(q_value))
    if any(m[k][j] for k, j in _OFF_S1):
        return charpoly(m)
    p = _block(m, 1, 0)
    for r in 3, 2, 1:
        p = mat_mul(p, _block(m, (r + 1) % 4, r))
    return QPolynomial({4 * e + 3: c for e, c in charpoly(p).coeffs.items()},
                       "t")


# ---------------------------------------------------------------------------
# certified real root isolation for the cubic factor


def _at(coeffs: list[int], n: int, d: int) -> int:
    """d^deg * p(n/d), for p's coefficients listed from the leading one."""
    value, dpow = 0, 1
    for c in coeffs:
        value = value * n + c * dpow
        dpow *= d
    return value


def _real_roots(f: list[int]) -> int:
    """Distinct real roots of the cubic with coefficients f = [a, b, c, d],
    a != 0, from the sign of its discriminant: 3 where it is positive, 1
    where it is negative; where it is 0, 1 for a triple root (b^2 = 3ac)
    and 2 for a double and a simple one."""
    a, b, c, d = f
    disc = (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)
    if disc:
        return 3 if disc > 0 else 1
    return 1 if b * b == 3 * a * c else 2


def isolate_root(p: list[int], lo, hi, width) -> tuple[Fraction, Fraction]:
    """Shrink the bracket (lo, hi] down to the requested width by exact
    bisection.  p lists integer coefficients from the leading one; it must
    have exactly one real root in (lo, hi] and change sign there, which is
    not checked.  The bracket is kept as integer numerators a, b over a
    common denominator d, which doubles at each step; the root is in (a,
    mid] iff p is 0 at mid or signed as at b."""
    (a, b), d = clear_denominators([rat(lo), rat(hi)])
    width = rat(width)
    vb = _at(p, b, d)
    while (b - a) * width.denominator > width.numerator * d:
        mid, d = a + b, 2 * d
        vmid = _at(p, mid, d)
        if not vmid or (vmid > 0) == (vb > 0) and vb:
            a, b, vb = 2 * a, mid, vmid
        else:
            a, b = mid, 2 * b
    return Fraction(a, d), Fraction(b, d)


def _float(x: Fraction) -> float:
    """float(x), but +-inf where float(x) overflows."""
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def _rounded_root(p: list[int], lo, hi) -> float:
    """The float nearest the root of p in (lo, hi], 0 <= lo, ties to even,
    for a bracket that isolate_root accepts: it is halved until its ends
    round alike, or until the root is the tie halfway between their
    floats (inf counting as 2^1024)."""
    while (x := _float(lo)) != (y := _float(hi)):
        m = (Fraction(x) + (Fraction(y) if y < inf else 2**1024)) / 2
        if lo < m and not _at(p, m.numerator, m.denominator):
            return _float(m)
        lo, hi = isolate_root(p, lo, hi, (hi - lo) / 2)
    return x


class SpectralReport:
    def __init__(self, char_poly: QPolynomial):
        self.char_poly = char_poly
        self.shape_ok = self.dominant_real_simple = False
        self.modulus_set_is_fourth_roots = self.trace_form_nondegenerate = False
        self.y_max = self.other_modulus = 0.0
        self.y_max_bracket: tuple[Fraction, Fraction] = (rat(0), rat(0))
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return (self.shape_ok and self.dominant_real_simple
                and self.modulus_set_is_fourth_roots
                and self.trace_form_nondegenerate)

    def to_dict(self) -> dict:
        lo, hi = self.y_max_bracket
        return {
            "char_poly": self.char_poly.to_dict(),
            "shape_t3_f_t4": self.shape_ok,
            "y_max": {"value": repr(self.y_max),
                      "bracket": [str(lo), str(hi)],
                      "radius": str(hi - lo)},
            "other_root_modulus": {"value": repr(self.other_modulus),
                                   "note": "exact square is |constant term| / y_max"},
            "dominant_real_simple": self.dominant_real_simple,
            "modulus_set_is_fourth_roots": self.modulus_set_is_fourth_roots,
            "trace_form_nondegenerate": self.trace_form_nondegenerate,
            "notes": self.notes,
        }


def conjecture_o_check(table: MultiplicationTable) -> SpectralReport:
    """Eigenvalue structure of hyperplane multiplication at q = 1.

    The characteristic polynomial must factor as t^3 * f(t^4) for a cubic
    f; the dominant root of f is isolated exactly, and dominance over the
    complex pair is certified with rational arithmetic (the pair has
    modulus squared equal to (constant term magnitude)/y_max).
    """
    cp = sigma1_charpoly(table, 1)
    report = SpectralReport(cp)
    # the trace form does not depend on the cubic: it is computed on every
    # path, the early returns below included
    report.trace_form_nondegenerate, _ = check_semisimple(table, 1)

    # exponents 3 mod 4 are all >= 3, so t^3 divides the polynomial
    report.shape_ok = (cp.degree() == 15 and
                       all(e % 4 == 3 for e in cp.coeffs))
    if not report.shape_ok:
        report.notes.append("characteristic polynomial does not have the "
                            "t^3 * f(t^4) shape")
        return report
    # f(y) = y^3 + c11 y^2 + c7 y + c3 so that t^3 f(t^4) = charpoly,
    # times the lcm of its denominators
    f = clear_denominators([1, cp.coeff(11), cp.coeff(7), cp.coeff(3)])[0]

    # count real roots of f by its discriminant; a lone one has the sign
    # of -f(0), as f[0] > 0, and the bisection starts from a bracket
    # certain to contain it (Cauchy bound)
    n_real = _real_roots(f)
    if n_real != 1:
        report.notes.append(f"cubic has {n_real} real roots, expected 1 "
                            "(one real plus a complex pair)")
        return report
    if f[3] >= 0:
        report.notes.append("the real root of the cubic is not positive")
        return report
    bound = 1 + Fraction(max(map(abs, f[1:])), f[0])
    lo, hi = isolate_root(f, 0, bound, Fraction(1, 10**14))
    report.y_max_bracket = (lo, hi)
    report.y_max = _rounded_root(f, lo, hi)

    # the complex pair z, z~ satisfies y_max * |z|^2 = -f(0), so strict
    # dominance is |z|^2 < y_max^2, i.e. -f(0) < y_max^3, certified on
    # the exact lower bracket end (c0 > 0, as f[3] < 0, so lo = 0 fails)
    c0 = Fraction(-f[3], f[0])
    dominant = lo ** 3 > c0
    report.dominant_real_simple = dominant
    report.other_modulus = _float(c0 / ((lo + hi) / 2)) ** 0.5
    # the fifteen eigenvalues are 0 (multiplicity 3) and the fourth roots
    # of the three roots of f; the modulus-maximal set is exactly the four
    # fourth roots of y_max, i.e. T times the fourth roots of unity
    report.modulus_set_is_fourth_roots = dominant
    return report


GALKIN_THRESHOLD = Fraction(6561, 256)  # (9/4)^4: equality means T exactly 9


def galkin_bound_check(table: MultiplicationTable) -> tuple[float, bool, SpectralReport]:
    """Spectral radius of anticanonical multiplication, 4 * y_max^(1/4),
    and the strict bound against dimension + 1 = 9.

    The strictness is certified in rationals: T > 9 iff y_max > (9/4)^4,
    tested on the exact lower end of the isolation bracket.
    """
    report = conjecture_o_check(table)
    bound_ok = report.y_max_bracket[0] > GALKIN_THRESHOLD
    t_cg = 4 * (report.y_max ** 0.25)
    return t_cg, bound_ok, report


def nilpotency_index(table: MultiplicationTable, q_value=0) -> int:
    """Smallest k with the k-th power of hyperplane multiplication zero;
    returns 0 if no power up to the algebra dimension vanishes."""
    m = multiplication_matrix(table, _S1, _exact_q(q_value))
    n = len(m)
    power = m
    for k in range(1, n + 1):
        if all(x == 0 for row in power for x in row):
            return k
        power = mat_mul(power, m)
    return 0


def covariance_check(table: MultiplicationTable, q_value=16,
                     base: QPolynomial | None = None) -> bool:
    """Grading covariance of the characteristic polynomial: the t^k
    coefficient scales as q^((15 - k)/4) relative to q = 1.  base is the
    q = 1 polynomial, computed here when the caller does not hold it."""
    if base is None:
        base = sigma1_charpoly(table, 1)
    scaled = sigma1_charpoly(table, q_value)
    qv = rat(q_value)
    for e in set(base.coeffs) | set(scaled.coeffs):
        k, r = divmod(15 - e, 4)
        if r or scaled.coeff(e) != base.coeff(e) * qv ** k:
            return False
    return True
