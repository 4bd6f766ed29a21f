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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .exactmath import (ZERO, GradedRing, InconsistentSystem,
                        MultiPolynomial, UnderdeterminedSystem,
                        clear_denominators, identity, rref)
from .schubert import (DEGREES, LABEL_INDEX, LABELS, MultiplicationTable,
                       SchubertElement, Terms, default_data_dir)

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


@dataclass
class DegreeSlice:
    monomials: list[tuple[int, ...]]          # graded-lex descending
    index: dict[tuple[int, ...], int]
    basis: list[tuple[int, ...]]              # non-pivot monomials
    # rref of the relation span: each pivot column with the nonzero
    # entries of its row in the non-pivot columns
    reducers: list[tuple[int, list[tuple[int, Fraction]]]]


class GradedQuotient:
    """A graded polynomial ring modulo homogeneous relations, with
    per-degree normal forms."""

    def __init__(self, ring: GradedRing, relations: list[MultiPolynomial],
                 max_degree: int = DEFAULT_MAX_DEGREE,
                 expected_dims=None):
        for rel in relations:
            if not rel.is_homogeneous():
                raise ValueError("relations must be homogeneous")
        self.ring = ring
        self.relations = list(relations)
        self.max_degree = max_degree
        # each relation as (degree, integer terms): scaling by the lcm of
        # its denominators leaves the span of its multiples unchanged
        integral = []
        for rel in self.relations:
            ints, _ = clear_denominators(list(rel.terms.values()))
            integral.append((rel.degree(), list(zip(rel.terms, ints))))
        self.slices: dict[int, DegreeSlice] = {}
        for d in range(max_degree + 1):
            self.slices[d] = self._build_slice(d, integral)
            if expected_dims is not None:
                want = expected_dims(d)
                got = len(self.slices[d].basis)
                if got != want:
                    raise DimensionMismatch(
                        f"degree {d}: quotient dimension {got}, expected {want}")

    def _build_slice(self, degree: int, integral) -> DegreeSlice:
        """Row-reduce the span of the relation multiples of one degree;
        each multiple is written straight into an integer row by shifting
        the exponents of its relation."""
        monomials = self.ring.monomials(degree)
        index = {m: i for i, m in enumerate(monomials)}
        rows: list[list[int]] = []
        for rel_degree, terms in integral:
            shift = degree - rel_degree
            if shift < 0:
                continue
            for mono in self.ring.monomials(shift):
                row = [0] * len(monomials)
                for exps, c in terms:
                    row[index[tuple(a + b for a, b in zip(exps, mono))]] = c
                rows.append(row)
        reduced, _, pivots = rref(rows)
        pivot_set = set(pivots)
        basis = [m for i, m in enumerate(monomials) if i not in pivot_set]
        reducers = [(col, [(j, c) for j, c in enumerate(row)
                           if c and j != col])
                    for row, col in zip(reduced, pivots)]
        return DegreeSlice(monomials, index, basis, reducers)

    def dimension(self, degree: int) -> int:
        return len(self._slice(degree).basis)

    def _slice(self, degree: int) -> DegreeSlice:
        if degree not in self.slices:
            raise DegreeOutOfRange(f"degree {degree} beyond built maximum "
                                   f"{self.max_degree}")
        return self.slices[degree]

    def normal_form(self, p: MultiPolynomial) -> MultiPolynomial:
        """Reduce a homogeneous polynomial onto the non-pivot monomial basis
        of its degree.  normal_form(p) = 0 iff p lies in the ideal."""
        if p.is_zero():
            return p
        if not p.is_homogeneous():
            raise ValueError("normal_form expects a homogeneous polynomial")
        sl = self._slice(p.degree())
        vec = [ZERO] * len(sl.monomials)
        for exps, c in p.terms.items():
            vec[sl.index[exps]] = c
        # eliminate pivot coordinates using the reduced relation rows
        for col, row in sl.reducers:
            f = vec[col]
            if f:
                for j, c in row:
                    vec[j] -= f * c
        terms = {m: vec[sl.index[m]] for m in sl.basis}
        return MultiPolynomial(self.ring, terms)

    def basis(self, degree: int) -> list[tuple[int, ...]]:
        return list(self._slice(degree).basis)


def build_graded_basis(relations: list[MultiPolynomial] | None = None,
                       max_degree: int = DEFAULT_MAX_DEGREE,
                       check_dimensions: bool = True) -> GradedQuotient:
    """The quotient ring with per-degree normal-form bases built."""
    ring = generator_ring()
    if relations is None:
        relations = standard_relations(ring)
    return GradedQuotient(ring, relations, max_degree,
                          expected_dims=expected_dimension
                          if check_dimensions else None)


# ---------------------------------------------------------------------------
# Giambelli dictionary and evaluation into the Schubert basis


class GiambelliFormatError(ValueError):
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
        return exps, Fraction(term["coeff"])
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
        raw = json.load(fh)
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


def evaluate_in_schubert(table: MultiplicationTable,
                         p: MultiPolynomial) -> SchubertElement:
    """Evaluation homomorphism sending s1, s2 to the corresponding classes
    and q to the quantum parameter, multiplying out with the table."""
    if tuple(p.ring.names) != ("s1", "s2", "q"):
        raise ValueError("polynomial must live in the s1, s2, q ring")
    s0, s1, s2 = (LABEL_INDEX[l] for l in ("s0", "s1", "s2"))
    out: Terms = {}
    for (e1, e2, eq), c in p.terms.items():
        terms = {(s0, eq): c}
        for _ in range(e1):
            terms = table.times(terms, s1)
        for _ in range(e2):
            terms = table.times(terms, s2)
        for key, v in terms.items():
            out[key] = out.get(key, 0) + v
    return SchubertElement.from_terms(out)


def schubert_to_normal_form(quotient: GradedQuotient,
                            giambelli: dict[str, MultiPolynomial],
                            degree: int):
    """Change of basis in a fixed degree between Schubert-type generators
    {q^c * G(label) : deg(label) + 4c = degree} and the normal-form
    monomial basis.  Returns (columns, matrix) where matrix[i][j] is the
    coefficient of basis monomial i in the normal form of column j."""
    ring = quotient.ring
    cols: list[tuple[str, int]] = []
    for label in LABELS:
        rem = degree - DEGREES[label]
        if rem >= 0 and rem % 4 == 0:
            cols.append((label, rem // 4))
    basis = quotient.basis(degree)
    index = {m: i for i, m in enumerate(basis)}
    matrix = [[ZERO] * len(cols) for _ in basis]
    (q_exps,) = ring.gen("q").terms
    for j, (label, qexp) in enumerate(cols):
        poly = giambelli[label] * ring.monomial([qexp * e for e in q_exps])
        nf = quotient.normal_form(poly)
        for exps, c in nf.terms.items():
            matrix[index[exps]][j] = c
    return cols, matrix


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
    the rank of M included.

    The returned function expands sum(c * m) / den, for pairs (m, c) of a
    monomial m of the degree and an integer c, and a positive integer den,
    and raises what solve_linear(M, b) raises, in the same order:
    InconsistentSystem when the image has a nonzero row past the rank,
    then UnderdeterminedSystem when the rank is short of the columns.  An
    empty slice gives M no rows, so any column leaves the rank short; this
    is where solve_linear, which reads such an M as having no columns,
    differs.
    """
    cols, matrix = schubert_to_normal_form(quotient, giambelli, degree)
    n, k = len(matrix), len(cols)
    reduced, _, pivots = rref([row + unit for row, unit in
                               zip(matrix, identity(n))])
    rank = sum(1 for col in pivots if col < k)
    targets = [(LABEL_INDEX[cols[col][0]], cols[col][1])
               for col in pivots[:rank]]
    # E on integers over e_den, one list per column
    flat, e_den = clear_denominators([x for row in reduced for x in row[k:]])
    e_cols = [flat[i::n] for i in range(n)]

    sl = quotient._slice(degree)
    position = {sl.index[m]: i for i, m in enumerate(sl.basis)}
    reducers = dict(sl.reducers)
    nf_den = lcm(*[c.denominator for _, row in sl.reducers for _, c in row])
    columns = {}
    for j, mono in enumerate(sl.monomials):
        if j in position:
            columns[mono] = [nf_den * x for x in e_cols[position[j]]]
            continue
        column = [0] * n
        for t, c in reducers[j]:
            f = c.numerator * (nf_den // c.denominator)
            column = [v - f * x for v, x in zip(column, e_cols[position[t]])]
        columns[mono] = column
    map_den = e_den * nf_den

    def expand(terms, den: int) -> SchubertElement:
        v = [0] * n
        for mono, c in terms:
            v = [x + c * y for x, y in zip(v, columns[mono])]
        if any(v[rank:]):
            raise InconsistentSystem("no solution")
        if rank < k:
            raise UnderdeterminedSystem("solution not unique")
        den *= map_den
        return SchubertElement.from_terms(
            {t: Fraction(x, den) for t, x in zip(targets, v) if x})

    return expand


def _integral(p: MultiPolynomial):
    """The terms of p with integer coefficients, and their denominator."""
    ints, den = clear_denominators(list(p.terms.values()))
    return list(zip(p.terms, ints)), den


def expand_in_schubert(quotient: GradedQuotient,
                       giambelli: dict[str, MultiPolynomial],
                       p: MultiPolynomial) -> SchubertElement:
    """Rewrite a homogeneous polynomial, via its normal form, as an exact
    combination of q-power multiples of Schubert classes."""
    if p.is_zero():
        return SchubertElement.zero()
    degree = p.degree()
    terms, den = _integral(p)
    return _change_of_basis(quotient, giambelli, degree)(terms, den)


def products_via_presentation(quotient: GradedQuotient,
                              giambelli: dict[str, MultiPolynomial]):
    """All 120 unordered products of dictionary entries, recomputed
    through the quotient with each degree's change of basis factored once.

    Each entry is scaled to integers once, so a product is expanded from
    integer coefficients and only its expansion forms Fractions.  Yields
    (a, b, result) in table order; result is the product expanded in the
    Schubert basis, or the exception its expansion raised.
    """
    # one map per degree, factored on first use; nothing is kept for a
    # degree whose map could not be built, so its failure repeats
    expanders = {}
    # a missing entry still raises KeyError at its first pair
    integral = {label: _integral(giambelli[label]) for label in LABELS
                if label in giambelli}
    for i, a in enumerate(LABELS):
        for b in LABELS[i:]:
            pa, pb = giambelli[a], giambelli[b]
            try:
                # the ring is a domain: the product is zero only when a
                # factor is, and homogeneous only when both factors are
                if pa.is_zero() or pb.is_zero():
                    result = SchubertElement.zero()
                else:
                    degree = pa.degree() + pb.degree()
                    terms_a, den_a = integral[a]
                    terms_b, den_b = integral[b]
                    terms = {}
                    for ma, ca in terms_a:
                        for mb, cb in terms_b:
                            m = tuple(map(add, ma, mb))
                            terms[m] = terms.get(m, 0) + ca * cb
                    if degree not in expanders:
                        expanders[degree] = _change_of_basis(
                            quotient, giambelli, degree)
                    result = expanders[degree](terms.items(), den_a * den_b)
            except Exception as exc:
                result = exc
            yield a, b, result


def cross_check_presentation(table: MultiplicationTable,
                             quotient: GradedQuotient,
                             giambelli: dict[str, MultiPolynomial]):
    """Three-way consistency of table, relations, and dictionary.

    (i) the table kills both relations; (ii) each Giambelli polynomial
    evaluates to its own class; (iii) every unordered product recomputed
    through the quotient matches the table entry.
    Returns a VerificationReport.
    """
    from .schubert import VerificationReport

    report = VerificationReport()

    bad_rel = [str(rel) for rel in quotient.relations
               if not evaluate_in_schubert(table, rel).is_zero()]
    report.add("relations_killed", not bad_rel,
               "" if not bad_rel else f"table does not satisfy: {bad_rel}")

    bad_g = []
    for label in LABELS:
        got = evaluate_in_schubert(table, giambelli[label])
        if got != SchubertElement.basis(label):
            bad_g.append((label, str(got)))
    report.add("giambelli_evaluation", not bad_g,
               "" if not bad_g else f"mismatches: {bad_g[:3]}")

    bad_prod = []
    for a, b, via_quotient in products_via_presentation(quotient, giambelli):
        if isinstance(via_quotient, Exception):
            bad_prod.append((a, b, f"expansion failed: {via_quotient}"))
        elif via_quotient != table.basis_product(a, b):
            bad_prod.append((a, b, str(via_quotient)))
    report.add("products_match", not bad_prod,
               "" if not bad_prod else f"{len(bad_prod)} mismatches, "
               f"first: {bad_prod[:3]}")
    return report
