"""Exact rational arithmetic: univariate and multivariate polynomials over
the rationals, and dense exact linear algebra.

Everything here is pure and immutable-by-convention; no floating point is
used anywhere.  Rational numbers are ``fractions.Fraction`` (arbitrary
precision, always in lowest terms, positive denominator).  Matrices hold
ints or Fractions; `mat_mul` and `charpoly` keep an integer matrix on ints.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Mapping, Sequence

Rational = Fraction

ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_rational(x) -> Fraction:
    """rat for outside data, refusing exponents: Fraction expands 1e5000."""
    if isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"exponent part in {x!r}")
    return rat(x)


class NonSquareMatrixError(ValueError):
    pass


class InconsistentSystem(Exception):
    """The linear system has no solution."""


class UnderdeterminedSystem(Exception):
    """The linear system has more than one solution."""


# ---------------------------------------------------------------------------
# univariate polynomials


class QPolynomial:
    """Univariate polynomial with Fraction coefficients, keyed by exponent.

    The variable name is cosmetic ('q' for quantum parameters, 't' for
    characteristic polynomials).  Zero coefficients are never stored.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None, var: str = "q"):
        self.var = var
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = rat(c)
                if c:
                    if e < 0:
                        raise ValueError("negative exponent")
                    self.coeffs[int(e)] = c

    @classmethod
    def monomial(cls, exp: int, c=1, var: str = "q") -> "QPolynomial":
        return cls({exp: rat(c)}, var)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, exp: int) -> Fraction:
        return self.coeffs.get(exp, ZERO)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial({e: -c for e, c in self.coeffs.items()}, self.var)

    def __call__(self, value) -> Fraction:
        value = rat(value)
        total = ZERO
        for e, c in self.coeffs.items():
            total += c * value**e
        return total

    def derivative(self) -> "QPolynomial":
        return QPolynomial({e - 1: e * c for e, c in self.coeffs.items() if e > 0},
                           self.var)

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.coeffs)
        quo: dict[int, Fraction] = {}
        dg, lead = other.degree(), other.coeffs[other.degree()]
        while rem and max(rem) >= dg:
            e = max(rem)
            f = rem[e] / lead
            quo[e - dg] = f
            for eo, co in other.coeffs.items():
                k = e - dg + eo
                v = rem.get(k, ZERO) - f * co
                if v:
                    rem[k] = v
                elif k in rem:
                    del rem[k]
        return QPolynomial(quo, self.var), QPolynomial(rem, self.var)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"QPolynomial({self})"

    def __str__(self) -> str:
        return self.format("*")

    def format(self, sep: str) -> str:
        """The terms by descending exponent, each coefficient joined to its
        power of var by sep; a coefficient 1 is left out.  After the first
        term each sign stands apart, as in "t^3 - 2*t + 1".  A -1 there
        keeps its 1 with sep "*" ("- 1*t") and drops it with any other
        sep ("- t")."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            bare = c == 1
            if parts:
                parts.append("-" if c < 0 else "+")
                bare = bare or (c == -1 and sep != "*")
                c = abs(c)
            if e == 0:
                parts.append(str(c))
            else:
                v = self.var if e == 1 else f"{self.var}^{e}"
                parts.append(v if bare else f"{c}{sep}{v}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# multivariate polynomials over a graded generator list


class GradedRing:
    """Named generators with positive integer degrees, e.g. s1:1, s2:2, q:4.

    Monomials are exponent tuples over the generator list; the canonical
    term order is graded lexicographic in the given generator order.
    """

    def __init__(self, names: Sequence[str], degrees: Sequence[int]):
        if len(names) != len(degrees) or not names:
            raise ValueError("names and degrees must match and be non-empty")
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)
        if any(d <= 0 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        self._index = {n: i for i, n in enumerate(self.names)}

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(map(mul, exps, self.degrees))

    def monomials(self, degree: int) -> list[tuple[int, ...]]:
        """All exponent tuples of the given weighted degree, graded-lex
        descending (first generator heaviest)."""
        if degree < 0:
            return []
        # prefixes over all but the last generator, each with the degree
        # it leaves; the last exponent is then fixed, if it divides
        partial: list[tuple[tuple[int, ...], int]] = [((), degree)]
        *heads, last = self.degrees
        for d in heads:
            partial = [(prefix + (e,), rest - e * d) for prefix, rest in partial
                       for e in range(rest // d, -1, -1)]
        return [prefix + (rest // last,) for prefix, rest in partial
                if rest % last == 0]

    def zero(self) -> "MultiPolynomial":
        return MultiPolynomial(self, {})

    def one(self) -> "MultiPolynomial":
        return self.constant(1)

    def constant(self, c) -> "MultiPolynomial":
        z = (0,) * len(self.names)
        return MultiPolynomial(self, {z: c})

    def gen(self, name: str) -> "MultiPolynomial":
        exps = [0] * len(self.names)
        exps[self._index[name]] = 1
        return MultiPolynomial(self, {tuple(exps): 1})

    def monomial(self, exps: Sequence[int], c=1) -> "MultiPolynomial":
        return MultiPolynomial(self, {tuple(exps): c})

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedRing({gens})"


class MultiPolynomial:
    """Multivariate polynomial over a GradedRing, terms keyed by exponent
    tuple; integral coefficients are ints, and zeros are never stored."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping[tuple[int, ...], Fraction]):
        self.ring = ring
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in terms.items():
            if type(c) is not int and (c := rat(c)).denominator == 1:
                c = c.numerator
            if c:
                self.terms[tuple(exps)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Weighted degree of a homogeneous polynomial; -1 for zero."""
        if not self.terms:
            return -1
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def homogeneous_components(self) -> dict[int, "MultiPolynomial"]:
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            buckets.setdefault(self.ring.monomial_degree(exps), {})[exps] = c
        return {d: MultiPolynomial(self.ring, t) for d, t in buckets.items()}

    def component(self, degree: int) -> "MultiPolynomial":
        return MultiPolynomial(self.ring, {
            e: c for e, c in self.terms.items()
            if self.ring.monomial_degree(e) == degree})

    def truncate(self, max_degree: int) -> "MultiPolynomial":
        return MultiPolynomial(self.ring, {
            e: c for e, c in self.terms.items()
            if self.ring.monomial_degree(e) <= max_degree})

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exps), 0))

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPolynomial(self.ring, out)

    def __sub__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MultiPolynomial(self.ring, out)

    def __neg__(self) -> "MultiPolynomial":
        return MultiPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPolynomial":
        if isinstance(other, MultiPolynomial):
            out: dict[tuple[int, ...], int | Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return MultiPolynomial(self.ring, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPolynomial":
        if type(c) is not int:
            c = rat(c)
        return MultiPolynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPolynomial) and self.terms == other.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Graded-lex descending: higher total degree first, then earlier
        generators heavier."""
        return sorted(self.terms.items(),
                      key=lambda kv: (self.ring.monomial_degree(kv[0]), kv[0]),
                      reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPolynomial({self})"


def series_inverse(p: MultiPolynomial, max_degree: int) -> MultiPolynomial:
    """Inverse of a polynomial with unit constant term, as a power series
    truncated at the given weighted degree."""
    ring = p.ring
    zero_exp = (0,) * len(ring.names)
    c0 = p.coeff(zero_exp)
    if c0 == 0:
        raise ValueError("constant term must be a unit")
    # inv accumulated degree by degree: inv_d = -(sum_{k<d} inv_k * p_{d-k}) / c0
    comps = p.homogeneous_components()
    inv: dict[int, MultiPolynomial] = {0: ring.constant(1 / c0)}
    for d in range(1, max_degree + 1):
        acc = ring.zero()
        for k in range(d):
            pk = comps.get(d - k)
            if pk is not None and k in inv:
                acc = acc + inv[k] * pk
        inv[d] = acc.scale(-1 / c0)
    total = ring.zero()
    for part in inv.values():
        total = total + part
    return total


# ---------------------------------------------------------------------------
# dense exact linear algebra

Matrix = list  # list of rows of ints or Fractions


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_trace(a: Matrix) -> Rational | int:
    return sum(a[i][i] for i in range(len(a)))


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """The values (ints or Fractions) times the lcm of their denominators,
    as ints, and that lcm."""
    # a list, not a generator: a generator's argument tuple is grown by
    # resizing, and the spare tuples it leaves in the interpreter's free
    # list raised the peak RSS of a long run by about 0.3 MB
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def rref_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduce integer rows in place, each new row divided by the gcd of its
    entries.  Returns one row per pivot, in pivot order, and the pivot
    columns; row / row[pivot] is a row of the unique reduced form."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        for piv in range(lead, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        prow = rows[lead]
        p = prow[col]
        for i in range(nrows):
            f = rows[i][col]
            if i != lead and f:
                row = [p * x - f * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        lead += 1
    return rows[:lead], pivots


def solve_linear(a: Matrix, b: Sequence) -> list[Fraction]:
    """Exact unique solution of a x = b.

    Fraction-free: rref_int of the rows of [a | b], each scaled to integers
    by the lcm of its denominators; Fractions are formed only for the
    solution.  Raises InconsistentSystem when no solution exists and
    UnderdeterminedSystem when the solution is not unique; both are
    expected outcomes for callers, not failures.
    """
    ncols = len(a[0]) if a else 0
    bb = [rat(x) for x in b]
    if len(bb) != len(a):
        raise ValueError("dimension mismatch")
    reduced, pivots = rref_int([clear_denominators([*row, x])[0]
                                for row, x in zip(a, bb)])
    if ncols in pivots:
        raise InconsistentSystem("no solution")
    if len(pivots) < ncols:
        raise UnderdeterminedSystem("solution not unique")
    # every column is a pivot, in order
    return [Fraction(row[ncols], row[col]) for row, col in zip(reduced, pivots)]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant, fraction-free: each row is scaled to integers by
    the lcm of its denominators and reduced by Bareiss elimination, whose
    every division is exact; the scales are divided out at the end."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquareMatrixError("determinant needs a square matrix")
    rows, scale = [], 1
    for row in m:
        ints, den = clear_denominators(row)
        rows.append(ints)
        scale *= den
    # rows holds the trailing block still to be eliminated; prev is the
    # last pivot, which the next step divides out
    sign, prev = 1, 1
    while rows:
        piv = next((i for i, row in enumerate(rows) if row[0]), None)
        if piv is None:
            return ZERO
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            sign = -sign
        p, *ptail = rows[0]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], ptail)]
                for row in rows[1:]]
        prev = p
    return Fraction(sign * prev, scale)


def charpoly(m: Matrix, var: str = "t") -> QPolynomial:
    """Monic characteristic polynomial det(t*I - M), exactly.

    Faddeev-LeVerrier: M_1 = A, c_k = -tr(M_k)/k, M_{k+1} = A (M_k + c_k I).
    On an integer matrix each c_k is an integer, so ints stay ints.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise NonSquareMatrixError("charpoly needs a square matrix")
    coeffs = {n: 1}
    mk = m
    for k in range(1, n + 1):
        if k > 1:
            step = [row[:] for row in mk]
            for i in range(n):
                step[i][i] += ck
            mk = mat_mul(m, step)
        ck = Fraction(-mat_trace(mk), k)
        if ck.denominator == 1:
            ck = ck.numerator
        coeffs[n - k] = ck
    return QPolynomial(coeffs, var)
