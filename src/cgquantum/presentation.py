"""The ring Q[s1, s2, q]/(R5, R6) handled degree by degree.

Instead of Groebner bases, each graded slice is treated as a finite
dimensional vector space: enumerate the monomials of that weighted degree,
row-reduce the span of all relation multiples landing there, and keep the
non-pivot monomials as the normal-form basis.  With only two relations in
tiny degrees this is exact, fast, and order independent.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd, lcm
from operator import add, lshift

from .exactmath import (GradedRing, InconsistentSystem,
                        MultiPolynomial, UnderdeterminedSystem,
                        clear_denominators, parse_rational, rref_int)
from .schubert import (DEGREES, LABEL_INDEX, LABELS, DataFormatError,
                       MultiplicationTable, SchubertElement, Terms,
                       VerificationReport, default_data_dir)

BETTI = (1, 1, 2, 2, 3, 2, 2, 1, 1)
DEFAULT_MAX_DEGREE = 16


class DimensionMismatch(Exception):
    """A graded slice of the quotient has unexpected dimension."""


class DegreeOutOfRange(Exception):
    """normal_form was asked about a degree beyond the built bases."""


def generator_ring() -> GradedRing:
    return GradedRing(("s1", "s2", "q"), (1, 2, 4))


def expected_dimension(degree: int) -> int:
    """Dimension of the degree-d slice: the quotient is a free Q[q]-module
    on the 15 classes, so dim = sum of Betti numbers b_{d-4c}."""
    total = 0
    d = degree
    while d >= 0:
        if d < len(BETTI):
            total += BETTI[d]
        d -= 4
    return total


def standard_relations(ring: GradedRing) -> list[MultiPolynomial]:
    """The two quantum relations in degrees five and six."""
    s1, s2, q = ring.gen("s1"), ring.gen("s2"), ring.gen("q")
    r5 = s1**5 - 5 * s1**3 * s2 + 6 * s1 * s2**2 + 4 * q * s1
    r6 = (16 * s2**3 - 27 * s1**2 * s2**2 + 9 * s1**4 * s2
          + 32 * q * s2 - 28 * q * s1**2)
    return [r5, r6]


class DegreeSlice:
    """One degree of a quotient: its monomials, graded-lex descending, and
    their index; the non-pivot monomials as basis; the reduced integer
    rows; and each pivot column with its row's nonzero non-pivot entries
    over den as reducers."""

    def __init__(self, monomials, index, basis, rows, reducers, den: int):
        self.monomials, self.index, self.basis = monomials, index, basis
        self.rows, self.reducers, self.den = rows, reducers, den


class GradedQuotient:
    """A graded polynomial ring modulo homogeneous relations, with
    per-degree normal forms.  Each slice is built on first use."""

    def __init__(self, ring: GradedRing, relations: list[MultiPolynomial],
                 max_degree: int = DEFAULT_MAX_DEGREE):
        for rel in relations:
            if not rel.is_homogeneous():
                raise ValueError("relations must be homogeneous")
        self.ring = ring
        self.relations = list(relations)
        self.max_degree = max_degree
        # each relation as (degree, integer terms): scaling by the lcm of
        # its denominators leaves the span of its multiples unchanged
        self._relation_terms = [(rel.degree(), _integral(rel)[0])
                                for rel in self.relations]
        self._slices: dict[int, DegreeSlice] = {}
        # an exponent of a monomial of degree <= max_degree fits this width
        width = max_degree.bit_length() or 1
        self._shifts = range(0, width * len(ring.degrees), width)

    def _build_slice(self, degree: int, integral, below) -> DegreeSlice:
        """Row-reduce the span of the relation multiples of one degree.  The
        monomials x0*m come first, in the order of the m one x0-degree
        below, so the multiples by x0 span the reduced rows below, padded
        with zeros; only the x0-free multiples are written out."""
        monomials = self.ring.monomials(degree)
        index = {m: i for i, m in enumerate(monomials)}
        n = len(monomials)
        rows = [row + [0] * (n - len(row)) for row in below.rows] if below else []
        for rel_degree, terms in integral:
            for mono in self.ring.monomials(degree - rel_degree):
                if not mono[0]:
                    row = [0] * n
                    for exps, c in terms:
                        row[index[tuple(map(add, exps, mono))]] = c
                    rows.append(row)
        rows, pivots = rref_int(rows)
        pivot_set = set(pivots)
        basis = [m for i, m in enumerate(monomials) if i not in pivot_set]
        den = lcm(*[row[col] for row, col in zip(rows, pivots)])
        reducers = [(col, [(j, c * (den // row[col]))
                           for j, c in enumerate(row) if c and j != col])
                    for row, col in zip(rows, pivots)]
        return DegreeSlice(monomials, index, basis, rows, reducers, den)

    def dimension(self, degree: int) -> int:
        return len(self._slice(degree).basis)

    def _slice(self, degree: int) -> DegreeSlice:
        """The slice of one degree, built on first use from the slice one
        x0-degree below."""
        if degree not in self._slices:
            if not 0 <= degree <= self.max_degree:
                raise DegreeOutOfRange(f"degree {degree} beyond built maximum "
                                       f"{self.max_degree}")
            step = self.ring.degrees[0]
            below = self._slice(degree - step) if degree >= step else None
            self._slices[degree] = self._build_slice(
                degree, self._relation_terms, below)
        return self._slices[degree]

    def _key(self, exps) -> int:
        """A monomial of degree <= max_degree packed into one int; keys add
        as their monomials multiply."""
        return sum(map(lshift, exps, self._shifts))

    def _reduced(self, sl: DegreeSlice, terms) -> list[int]:
        """sl.den times the normal form of sum(c * m), for pairs (m, c) of a
        monomial of sl's degree and an integer; only the entries at the
        basis monomials are the normal form's."""
        vec = [0] * len(sl.monomials)
        for exps, c in terms:
            vec[sl.index[exps]] = c
        # eliminate pivot coordinates using the reduced relation rows
        out = [sl.den * x for x in vec]
        for col, row in sl.reducers:
            f = vec[col]
            if f:
                for j, c in row:
                    out[j] -= f * c
        return out

    def normal_form(self, p: MultiPolynomial) -> MultiPolynomial:
        """Reduce a homogeneous polynomial onto the non-pivot monomial basis
        of its degree.  normal_form(p) = 0 iff p lies in the ideal."""
        if p.is_zero():
            return p
        if not p.is_homogeneous():
            raise ValueError("normal_form expects a homogeneous polynomial")
        sl = self._slice(p.degree())
        terms, den = _integral(p)
        out = self._reduced(sl, terms)
        den *= sl.den
        return MultiPolynomial(self.ring, {
            m: Fraction(x, den) for m in sl.basis if (x := out[sl.index[m]])})

    def basis(self, degree: int) -> list[tuple[int, ...]]:
        return list(self._slice(degree).basis)


def build_graded_basis() -> GradedQuotient:
    """The quotient by the standard relations, with per-degree normal-form
    bases built; raises DimensionMismatch at the first degree whose slice
    does not have the expected dimension."""
    ring = generator_ring()
    quotient = GradedQuotient(ring, standard_relations(ring))
    for d in range(quotient.max_degree + 1):
        got, want = quotient.dimension(d), expected_dimension(d)
        if got != want:
            raise DimensionMismatch(
                f"degree {d}: quotient dimension {got}, expected {want}")
    return quotient


# ---------------------------------------------------------------------------
# Giambelli dictionary and evaluation into the Schubert basis


class GiambelliFormatError(DataFormatError):
    """The dictionary file does not match the documented schema."""


def _parse_monomial(label: str, term, ngens: int):
    if not isinstance(term, dict) or "exponents" not in term \
            or "coeff" not in term:
        raise GiambelliFormatError(f"term of {label} needs 'exponents' and "
                                   f"a 'coeff': {term!r}")
    exps = term["exponents"]
    if not isinstance(exps, list) or len(exps) != ngens \
            or any(type(e) is not int or e < 0 for e in exps):
        raise GiambelliFormatError(f"exponents of a {label} term must be "
                                   f"{ngens} integers >= 0: {term!r}")
    try:
        return exps, parse_rational(term["coeff"])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise GiambelliFormatError(
            f"bad coefficient in {label}: {term!r}") from None


def load_giambelli(path: str | os.PathLike | None = None,
                   ring: GradedRing | None = None) -> dict[str, MultiPolynomial]:
    if path is None:
        path = os.path.join(default_data_dir(), "cg_giambelli.json")
    if ring is None:
        ring = generator_ring()
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8
            raise GiambelliFormatError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise GiambelliFormatError("dictionary must be a JSON object")
    out: dict[str, MultiPolynomial] = {}
    for label, terms in raw.items():
        if label not in DEGREES:
            raise GiambelliFormatError(
                f"unknown label {label!r} in dictionary")
        if not isinstance(terms, list):
            raise GiambelliFormatError(f"terms of {label} must be a list")
        poly = ring.zero()
        for term in terms:
            poly = poly + ring.monomial(
                *_parse_monomial(label, term, len(ring.names)))
        if not poly.is_homogeneous() or poly.degree() != DEGREES[label]:
            raise GiambelliFormatError(
                f"dictionary entry for {label} is not homogeneous of "
                f"degree {DEGREES[label]}")
        out[label] = poly
    if set(out) != set(LABELS):
        raise GiambelliFormatError("dictionary must cover all 15 labels")
    return out


def _evaluate(table: MultiplicationTable, p: MultiPolynomial,
              powers: dict[tuple[int, int], Terms]) -> Terms:
    """The terms of evaluate_in_schubert(table, p).  powers maps (a, b) to
    s1^a * s2^b, each one product from a smaller monomial (s1 first)."""
    if tuple(p.ring.names) != ("s1", "s2", "q"):
        raise ValueError("polynomial must live in the s1, s2, q ring")
    s0, s1, s2 = (LABEL_INDEX[l] for l in ("s0", "s1", "s2"))
    powers.setdefault((0, 0), {(s0, 0): 1})
    out: Terms = {}
    for (e1, e2, eq), c in p.terms.items():
        for a in range(1, e1 + 1):
            if (a, 0) not in powers:
                powers[a, 0] = table.times(powers[a - 1, 0], s1)
        for b in range(1, e2 + 1):
            if (e1, b) not in powers:
                powers[e1, b] = table.times(powers[e1, b - 1], s2)
        for (k, e), v in powers[e1, e2].items():
            key = k, e + eq
            out[key] = out.get(key, 0) + c * v
    return out


def evaluate_in_schubert(table: MultiplicationTable,
                         p: MultiPolynomial) -> SchubertElement:
    """Evaluation homomorphism sending s1, s2 to the corresponding classes
    and q to the quantum parameter, multiplying out with the table."""
    return SchubertElement.from_terms(_evaluate(table, p, {}))


def _normal_form_matrix(quotient: GradedQuotient,
                        giambelli: dict[str, MultiPolynomial], degree: int):
    """schubert_to_normal_form as (columns, matrix, den) on integers, with
    matrix[i][j] / den its entry.  Each column is reduced from its entry's
    integer terms, shifted by its power of q, with the slice's reducers."""
    cols = [(label, rem // 4) for label in LABELS
            if (rem := degree - DEGREES[label]) >= 0 and rem % 4 == 0]
    index = {m: i for i, m in enumerate(quotient.basis(degree))}
    (q_exps,) = quotient.ring.gen("q").terms
    columns = []  # per column: (row, integer) pairs, and their denominator
    for label, qexp in cols:
        p, column, den = giambelli[label], [], 1
        if not p.is_zero():
            if not p.is_homogeneous():
                raise ValueError("normal_form expects a homogeneous polynomial")
            shift = [qexp * e for e in q_exps]
            sl = quotient._slice(p.degree() + p.ring.monomial_degree(shift))
            terms, den = _integral(p)
            out = quotient._reduced(
                sl, [(tuple(map(add, m, shift)), c) for m, c in terms])
            column = [(index[m], x) for m in sl.basis
                      if (x := out[sl.index[m]])]
            den *= sl.den
        columns.append((column, den))
    den = lcm(*[d for _, d in columns])
    matrix = [[0] * len(cols) for _ in index]
    for j, (column, d) in enumerate(columns):
        for i, x in column:
            matrix[i][j] = x * (den // d)
    return cols, matrix, den


def schubert_to_normal_form(quotient: GradedQuotient,
                            giambelli: dict[str, MultiPolynomial],
                            degree: int):
    """Change of basis in a fixed degree between Schubert-type generators
    {q^c * G(label) : deg(label) + 4c = degree} and the normal-form
    monomial basis.  Returns (columns, matrix) where matrix[i][j] is the
    coefficient of basis monomial i in the normal form of column j."""
    cols, matrix, den = _normal_form_matrix(quotient, giambelli, degree)
    # as in a normal form, a nonzero integral coefficient is an int
    return cols, [[Fraction(x, den) if x % den or not x else x // den
                   for x in row] for row in matrix]


def _change_of_basis(quotient: GradedQuotient,
                      giambelli: dict[str, MultiPolynomial], degree: int):
    """Factor one degree's change of basis once, as an integer map on the
    monomials of that degree.

    Row-reducing [M | I], for the matrix M of schubert_to_normal_form,
    gives [E M | E] with E M in reduced echelon form, so M x = b costs one
    product E b.  Composed with the normal form this is the map K whose
    column for a monomial m is E NF(m): NF(m) is a unit vector for a basis
    monomial and minus the reduced relation row for a pivot monomial.  K
    is kept as integer columns over one common denominator, the rows past
    the rank of M included.  M is reduced as the integer matrix den * M,
    whose solution is that of M divided by den.

    The returned function expands sum(c * m) / den, for pairs (k, c) of
    the key k of a monomial m of the degree and an integer c, and a
    positive integer den, into Terms, and raises what solve_linear(M, b)
    raises, in the same order: InconsistentSystem when the image has a
    nonzero row past the rank, then UnderdeterminedSystem when the rank is
    short of the columns.  An empty slice gives M no rows, so any column
    leaves the rank short; this is where solve_linear, which reads such an
    M as having no columns, differs.
    """
    cols, matrix, m_den = _normal_form_matrix(quotient, giambelli, degree)
    n, k = len(matrix), len(cols)
    reduced, pivots = rref_int([row + [int(i == j) for j in range(n)]
                                for i, row in enumerate(matrix)])
    rank = sum(1 for col in pivots if col < k)
    targets = [(LABEL_INDEX[cols[col][0]], cols[col][1])
               for col in pivots[:rank]]
    sl = quotient._slice(degree)
    # E on integers over e_den, one list per column, times m_den // g:
    # with map_den below this undoes the division of the solution by m_den
    e_den = lcm(*[row[col] for row, col in zip(reduced, pivots)])
    g = gcd(m_den, e_den * sl.den)
    e_cols = list(zip(*[[x * (e_den // row[col]) * (m_den // g)
                         for x in row[k:]]
                        for row, col in zip(reduced, pivots)]))

    position = {sl.index[m]: i for i, m in enumerate(sl.basis)}
    columns = {quotient._key(m): [sl.den * x for x in e_cols[i]]
               for i, m in enumerate(sl.basis)}
    for j, row in sl.reducers:
        column = [0] * n
        for t, c in row:
            column = [v - c * x for v, x in zip(column, e_cols[position[t]])]
        columns[quotient._key(sl.monomials[j])] = column
    map_den = e_den * sl.den // g

    def expand(terms, den: int) -> Terms:
        v = [0] * n
        for key, c in terms:
            v = [x + c * y for x, y in zip(v, columns[key])]
        if any(v[rank:]):
            raise InconsistentSystem("no solution")
        if rank < k:
            raise UnderdeterminedSystem("solution not unique")
        den *= map_den
        return {t: Fraction(x, den) if x % den else x // den
                for t, x in zip(targets, v) if x}

    return expand


def _integral(p: MultiPolynomial, key=tuple):
    """The terms of p with integer coefficients, each monomial m as
    key(m), and their denominator."""
    ints, den = clear_denominators(list(p.terms.values()))
    return list(zip(map(key, p.terms), ints)), den


def expand_in_schubert(quotient: GradedQuotient,
                       giambelli: dict[str, MultiPolynomial],
                       p: MultiPolynomial) -> SchubertElement:
    """Rewrite a homogeneous polynomial, via its normal form, as an exact
    combination of q-power multiples of Schubert classes."""
    if p.is_zero():
        return SchubertElement.zero()
    degree = p.degree()
    terms, den = _integral(p, quotient._key)
    return SchubertElement.from_terms(
        _change_of_basis(quotient, giambelli, degree)(terms, den))


def _product_terms(quotient: GradedQuotient,
                   giambelli: dict[str, MultiPolynomial]):
    """All 120 unordered products of dictionary entries, recomputed
    through the quotient with each degree's change of basis factored once.

    Each entry is scaled to integers once, with its monomials as keys, so a
    product is expanded from integer coefficients and only its expansion
    forms Fractions.  Yields (a, b, result) in table order; result is the
    terms of the product in the Schubert basis, or the exception its
    expansion raised.
    """
    # one map per degree, factored on first use; nothing is kept for a
    # degree whose map could not be built, so its failure repeats
    expanders = {}
    # a missing entry still raises KeyError at its first pair
    integral = {label: _integral(giambelli[label], quotient._key)
                for label in LABELS if label in giambelli}
    # a non-homogeneous entry has no degree here, and raises at each pair
    degrees = {label: giambelli[label].degree() for label in integral
               if giambelli[label].is_homogeneous()}
    for i, a in enumerate(LABELS):
        for b in LABELS[i:]:
            pa, pb = giambelli[a], giambelli[b]
            try:
                # the ring is a domain: the product is zero only when a
                # factor is, and homogeneous only when both factors are
                if pa.is_zero() or pb.is_zero():
                    result = {}
                else:
                    degree = ((degrees.get(a) or pa.degree())
                              + (degrees.get(b) or pb.degree()))
                    terms_a, den_a = integral[a]
                    terms_b, den_b = integral[b]
                    terms = {}
                    for ka, ca in terms_a:
                        for kb, cb in terms_b:
                            terms[ka + kb] = terms.get(ka + kb, 0) + ca * cb
                    if degree not in expanders:
                        expanders[degree] = _change_of_basis(
                            quotient, giambelli, degree)
                    result = expanders[degree](terms.items(), den_a * den_b)
            except Exception as exc:
                result = exc
            yield a, b, result


def products_key(quotient: GradedQuotient,
                 giambelli: dict[str, MultiPolynomial]):
    """What the products through the quotient depend on: its ring,
    max_degree and relations, and each entry's zero-ness, degree and normal
    form.  Equal keys give equal products and exceptions; a missing entry
    or one without a normal form makes a key equal to no other."""
    try:
        entries = [(p.is_zero(), p.degree(), quotient.normal_form(p).terms)
                   for p in [giambelli[label] for label in LABELS]]
    except (KeyError, ValueError, DegreeOutOfRange):
        return object()
    ring = quotient.ring
    return (ring.names, ring.degrees, quotient.max_degree,
            [rel.terms for rel in quotient.relations], entries)


def products_via_presentation(quotient: GradedQuotient,
                              giambelli: dict[str, MultiPolynomial]):
    """_product_terms with each expansion as a SchubertElement."""
    for a, b, r in _product_terms(quotient, giambelli):
        yield a, b, r if isinstance(r, Exception) else \
            SchubertElement.from_terms(r)


def mismatched_products(table: MultiplicationTable, quotient: GradedQuotient,
                        giambelli: dict[str, MultiPolynomial]):
    """The (a, b, result) of products_via_presentation whose result is an
    exception or differs from the table entry, compared on terms."""
    for a, b, r in _product_terms(quotient, giambelli):
        want = table.tensor[LABEL_INDEX[a]][LABEL_INDEX[b]]
        if isinstance(r, Exception):
            yield a, b, r
        elif r != want and r != {t: c for t, c in want.items() if c}:
            yield a, b, SchubertElement.from_terms(r)


def cross_check_presentation(table: MultiplicationTable,
                             quotient: GradedQuotient,
                             giambelli: dict[str, MultiPolynomial],
                             mismatches: list | None = None):
    """Three-way consistency of table, relations, and dictionary.

    (i) the table kills both relations; (ii) each Giambelli polynomial
    evaluates to its own class; (iii) every unordered product recomputed
    through the quotient matches the table entry.  mismatches, if given,
    is the list of mismatched_products for these arguments.
    Returns a VerificationReport.
    """
    report = VerificationReport()
    powers: dict = {}  # the values of s1^a * s2^b, shared by (i) and (ii)

    bad_rel = [str(rel) for rel in quotient.relations
               if any(_evaluate(table, rel, powers).values())]
    report.add("relations_killed", not bad_rel,
               "" if not bad_rel else f"table does not satisfy: {bad_rel}")

    got = {label: SchubertElement.from_terms(
        _evaluate(table, giambelli[label], powers)) for label in LABELS}
    bad_g = [(label, str(g)) for label, g in got.items()
             if g != SchubertElement.basis(label)]
    report.add("giambelli_evaluation", not bad_g,
               "" if not bad_g else f"mismatches: {bad_g[:3]}")

    if mismatches is None:
        mismatches = mismatched_products(table, quotient, giambelli)
    bad_prod = [(a, b, f"expansion failed: {result}"
                 if isinstance(result, Exception) else str(result))
                for a, b, result in mismatches]
    report.add("products_match", not bad_prod,
               "" if not bad_prod else f"{len(bad_prod)} mismatches, "
               f"first: {bad_prod[:3]}")
    return report
