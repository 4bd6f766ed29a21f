"""Spectral checks on quantum multiplication: characteristic polynomial,
semisimplicity via the trace form, dominant-eigenvalue structure, and the
spectral-radius lower bound.

The certified parts (root isolation, strict inequalities) are done with
exact rational arithmetic; floating point only polishes the final decimal
approximations, and every printed approximation carries an error radius.
"""
from __future__ import annotations

from fractions import Fraction

from .exactmath import (Matrix, QPolynomial, charpoly, clear_denominators,
                        determinant, mat_mul, rat)
from .schubert import LABEL_INDEX, LABELS, MultiplicationTable, SchubertElement


def multiplication_matrix(table: MultiplicationTable, x: SchubertElement,
                          q_value) -> Matrix:
    """15x15 matrix of quantum multiplication by x with q specialized,
    columns indexed by the basis in label order: entry (k, j) is the
    coefficient of basis k in x * basis j."""
    qv = rat(q_value)
    n = len(LABELS)
    m = [[rat(0)] * n for _ in range(n)]
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
    Returns (semisimple, exact Gram determinant)."""
    qv, tensor, n = _exact_q(q_value), table.tensor, len(LABELS)
    qpow = {e: qv ** e for terms in table.constants.values() for _, e in terms}
    # trace of multiplication by each basis class
    trace = [sum(c * qpow[e] for j in range(n)
                 for (k, e), c in tensor[i][j].items() if k == j)
             for i in range(n)]
    gram = [[sum(c * qpow[e] * trace[k] for (k, e), c in tensor[i][j].items())
             for j in range(n)] for i in range(n)]
    det = determinant(gram)
    return det != 0, det


def _sigma1_rows(table: MultiplicationTable, q_value) -> tuple[Matrix, int]:
    """D*M as int rows, M the s1 matrix at q_value, and D (1 at integral q)."""
    qv, n = _exact_q(q_value), len(LABELS)
    m = [[0] * n for _ in range(n)]
    for j, terms in enumerate(table.tensor[LABEL_INDEX["s1"]]):
        for (k, e), c in terms.items():
            m[k][j] += c * qv ** e
    flat, den = clear_denominators([x for row in m for x in row])
    return [flat[i:i + n] for i in range(0, len(flat), n)], den


def sigma1_charpoly(table: MultiplicationTable, q_value) -> QPolynomial:
    """Characteristic polynomial of multiplication by s1 at q_value, taken
    on the integer matrix D*M: its t^(n-k) coefficient is D^k times M's."""
    rows, den = _sigma1_rows(table, q_value)
    n = len(rows)
    return QPolynomial({e: c / den ** (n - e) for e, c in
                        charpoly(rows, var="t").coeffs.items()}, var="t")


# ---------------------------------------------------------------------------
# certified real root isolation for the cubic factor


def sturm_sequence(p: QPolynomial) -> list[list[int]]:
    """Sturm sequence of p, each member scaled by a positive integer to
    integer coefficients (which keeps its signs) and listed densely from
    the leading coefficient down."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        rem = seq[-2].divmod(seq[-1])[1]
        if rem.is_zero():
            break
        seq.append(-rem)
    return [clear_denominators([poly.coeff(e) for e in
                                range(poly.degree(), -1, -1)])[0]
            for poly in seq]


def sign_changes(seq: list[list[int]], n: int, d: int) -> int:
    """Sign changes of the sequence at n/d, d > 0, zeros skipped.  Each
    sign is that of the homogenised sum d^deg * p(n/d), read on ints."""
    changes, last = 0, 0
    for coeffs in seq:
        value, dpow = 0, 1
        for c in coeffs:
            value = value * n + c * dpow
            dpow *= d
        if value:
            sign = 1 if value > 0 else -1
            if last and sign != last:
                changes += 1
            last = sign
    return changes


def count_real_roots(seq: list[list[int]], lo, hi) -> int:
    """Distinct real roots in (lo, hi] of the polynomial whose Sturm
    sequence this is."""
    (a, b), d = clear_denominators([rat(lo), rat(hi)])
    return sign_changes(seq, a, d) - sign_changes(seq, b, d)


def isolate_root(seq: list[list[int]], lo, hi,
                 width) -> tuple[Fraction, Fraction]:
    """Shrink a bracket known to contain exactly one real root down to the
    requested width by exact bisection on Sturm counts.  The bracket is
    kept as integer numerators a, b over a common denominator d, which
    doubles at each step; only the midpoint is evaluated."""
    (a, b), d = clear_denominators([rat(lo), rat(hi)])
    va = sign_changes(seq, a, d)
    if va - sign_changes(seq, b, d) != 1:
        raise ValueError("bracket does not isolate a single root")
    width = rat(width)
    while (b - a) * width.denominator > width.numerator * d:
        mid, d = a + b, 2 * d
        vmid = sign_changes(seq, mid, d)
        if va - vmid == 1:
            a, b = 2 * a, mid
        else:
            a, b, va = mid, 2 * b, vmid
    return Fraction(a, d), Fraction(b, d)


def newton_polish(p: QPolynomial, x0, iterations: int = 60) -> float:
    """Newton iteration in exact rationals from a certified starting
    point; denominators are trimmed each step to keep sizes bounded far
    below the trim precision's effect on the result."""
    dp = p.derivative()
    x = rat(x0)
    for _ in range(iterations):
        fx, dfx = p(x), dp(x)
        if dfx == 0:
            break
        step = fx / dfx
        x = (x - step).limit_denominator(10**30)
        if abs(step) < Fraction(1, 10**20) * max(1, abs(x)):
            break
    return float(x)


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
            "char_poly": {str(e): str(c)
                          for e, c in sorted(self.char_poly.coeffs.items())},
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

    n = cp.degree()
    report.shape_ok = (n == 15 and
                       all(e % 4 == 3 or e == 15 for e in cp.coeffs) and
                       all(e >= 3 for e in cp.coeffs))
    if not report.shape_ok:
        report.notes.append("characteristic polynomial does not have the "
                            "t^3 * f(t^4) shape")
        return report
    # f(y) = y^3 + c11 y^2 + c7 y + c3 so that t^3 f(t^4) = charpoly
    f = QPolynomial({3: rat(1), 2: cp.coeff(11), 1: cp.coeff(7),
                     0: cp.coeff(3)}, var="y")

    # count and isolate real roots of f over a bracket certain to contain
    # them all (Cauchy bound)
    bound = 1 + max(abs(f.coeff(i)) for i in range(3))
    seq = sturm_sequence(f)
    n_real = count_real_roots(seq, -bound, bound)
    if n_real != 1:
        report.notes.append(f"cubic has {n_real} real roots, expected 1 "
                            "(one real plus a complex pair)")
        report.dominant_real_simple = False
        return report
    if count_real_roots(seq, 0, bound) != 1:
        report.notes.append("the real root of the cubic is not positive")
        report.dominant_real_simple = False
        return report
    lo, hi = isolate_root(seq, 0, bound, Fraction(1, 10**14))
    report.y_max_bracket = (lo, hi)
    report.y_max = newton_polish(f, float((lo + hi) / 2))

    # the complex pair z, z~ satisfies y_max * |z|^2 = -f(0), so strict
    # dominance is |z|^2 < y_max^2, i.e. -f(0) < y_max^3, certified on
    # the exact lower bracket end
    c0 = -f.coeff(0)
    dominant = c0 > 0 and lo > 0 and lo ** 3 > c0
    report.dominant_real_simple = dominant and n_real == 1
    report.other_modulus = float(c0 / ((lo + hi) / 2)) ** 0.5
    # the fifteen eigenvalues are 0 (multiplicity 3) and the fourth roots
    # of the three roots of f; the modulus-maximal set is exactly the four
    # fourth roots of y_max, i.e. T times the fourth roots of unity
    report.modulus_set_is_fourth_roots = report.shape_ok and dominant
    return report


GALKIN_THRESHOLD = Fraction(6561, 256)  # (9/4)^4: equality means T exactly 9


def galkin_bound_check(table: MultiplicationTable) -> tuple[float, bool, SpectralReport]:
    """Spectral radius of anticanonical multiplication, 4 * y_max^(1/4),
    and the strict bound against dimension + 1 = 9.

    The strictness is certified in rationals: T > 9 iff y_max > (9/4)^4,
    tested on the exact lower end of the isolation bracket.
    """
    report = conjecture_o_check(table)
    lo, hi = report.y_max_bracket
    bound_ok = lo > GALKIN_THRESHOLD
    t_cg = 4 * (report.y_max ** 0.25)
    return t_cg, bound_ok, report


def nilpotency_index(table: MultiplicationTable, q_value=0) -> int:
    """Smallest k with the k-th power of hyperplane multiplication zero;
    returns 0 if no power up to the algebra dimension vanishes."""
    # D*M has the same vanishing powers as M
    m, _ = _sigma1_rows(table, q_value)
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
        expo = Fraction(15 - e, 4)
        if expo.denominator != 1:
            return False
        if scaled.coeff(e) != base.coeff(e) * qv ** int(expo):
            return False
    return True
