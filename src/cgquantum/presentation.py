"""The ring Q[s1, s2, q]/(R5, R6) handled degree by degree.

Instead of Groebner bases, each graded slice is treated as a finite
dimensional vector space, built from the slice one first-generator degree
below: only the relation multiples that generator does not divide are
row-reduced, the non-pivot monomials are the basis, and each monomial's
normal form is kept as a short integer row over it.  With only two
relations in tiny degrees this is exact, fast, and order independent.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import chain
from math import ceil, gcd, lcm
from operator import lshift

from .exactmath import (GradedRing, MultiPolynomial, clear_denominators,
                        parse_rational, rref_int, solve_columns)
from .schubert import (DEGREES, LABEL_INDEX, LABELS, DataFormatError,
                       MultiplicationTable, SchubertElement, Terms,
                       VerificationReport, default_data_dir)

DEFAULT_MAX_DEGREE = 16


class DimensionMismatch(Exception):
    """A graded slice of the quotient has unexpected dimension."""


class DegreeOutOfRange(Exception):
    """normal_form was asked about a degree beyond the built bases."""


def generator_ring() -> GradedRing:
    return GradedRing(("s1", "s2", "q"), (1, 2, 4))


def _columns(degree: int) -> list[tuple[str, int]]:
    """The (label, c) of each q^c * s_label of this degree, in label order."""
    return [(label, rem // 4) for label in LABELS
            if (rem := degree - DEGREES[label]) >= 0 and rem % 4 == 0]


def expected_dimension(degree: int) -> int:
    """Dimension of the degree-d slice: the quotient is a free Q[q]-module
    on the 15 classes, so dim counts the q^c * s_label of degree d."""
    return len(_columns(degree))


def standard_relations(ring: GradedRing) -> list[MultiPolynomial]:
    """The two quantum relations in degrees five and six."""
    s1, s2, q = ring.gen("s1"), ring.gen("s2"), ring.gen("q")
    r5 = s1**5 - 5 * s1**3 * s2 + 6 * s1 * s2**2 + 4 * q * s1
    r6 = (16 * s2**3 - 27 * s1**2 * s2**2 + 9 * s1**4 * s2
          + 32 * q * s2 - 28 * q * s1**2)
    return [r5, r6]


class DegreeSlice:
    """One degree of a quotient: its non-pivot monomials, graded-lex
    descending, as basis, and for each monomial's key, in monomial order,
    den times its normal form as (basis position, nonzero int) pairs.  A
    pivot monomial less its normal form is its reduced relation row."""

    def __init__(self, basis, nf, den):
        self.basis, self.nf, self.den = basis, nf, den


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
        # an exponent of a monomial of degree <= max_degree fits this width
        width = max_degree.bit_length() or 1
        self._shifts = range(0, width * len(ring.degrees), width)
        # each relation as (degree, integer terms): scaling by the lcm of
        # its denominators leaves the span of its multiples unchanged
        self._relation_terms = [(rel.degree(), _integral(rel, self._key)[0])
                                for rel in self.relations]
        self._slices: dict[int, DegreeSlice] = {}
        self._rest = (GradedRing(ring.names[1:], ring.degrees[1:])
                      if ring.names[1:] else None)

    def _build_slice(self, degree: int, below) -> DegreeSlice:
        """The normal forms of one degree from the slice one x0-degree
        below.  x0*m, for m below, reduces to x0 times m's normal form, so
        over W (x0 times the basis below, then the x0-free monomials) only
        the x0-free relation multiples are reduced; their pivots are new."""
        basis, den = below.basis, below.den
        # each monomial's key and den times its row over W; x0 has key 1, so
        # the key of x0*m is the key of m plus 1
        rows = {key + 1: row for key, row in below.nf.items()}
        tail = self._x0_free(degree)
        rows.update((self._key(m), ((j, den),))
                    for j, m in enumerate(tail, len(basis)))
        basis = [(b[0] + 1, *b[1:]) for b in basis] + tail
        multiples = []
        for rel_degree, terms in self._relation_terms:
            for mono in self._x0_free(degree - rel_degree):
                vec, shift = [0] * len(basis), self._key(mono)
                for key, c in terms:
                    for j, x in rows[key + shift]:
                        vec[j] += c * x
                multiples.append(vec)
        reduced, cols = rref_int(multiples)
        pivots = dict(zip(cols, reduced))
        free = [j for j in range(len(basis)) if j not in pivots]
        scale = lcm(*[row[p] for p, row in pivots.items()])
        # W as a slice keyed by its columns: scale times their normal forms
        w = DegreeSlice([basis[j] for j in free], {
            j: ((t, scale),) for t, j in enumerate(free)}, scale)
        w.nf.update((p, [(t, -row[j] * (scale // row[p]))
                         for t, j in enumerate(free) if row[j]])
                    for p, row in pivots.items())
        rows = {key: self._reduced(w, row) for key, row in rows.items()}
        den *= scale
        g = gcd(den, *chain.from_iterable(rows.values()))
        return DegreeSlice(w.basis, {
            key: tuple([(t, x // g) for t, x in enumerate(out) if x])
            for key, out in rows.items()}, den // g)

    def _x0_free(self, degree: int) -> list[tuple[int, ...]]:
        """The monomials of one degree without x0, graded-lex descending."""
        if self._rest:
            return [(0, *m) for m in self._rest.monomials(degree)]
        return [(0,)] * (degree == 0)  # x0 is the only generator

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
            below = self._slice(degree - step) if degree >= step \
                else DegreeSlice([], {}, 1)
            self._slices[degree] = self._build_slice(degree, below)
        return self._slices[degree]

    def _key(self, exps) -> int:
        """A monomial of degree <= max_degree packed into one int; keys add
        as their monomials multiply."""
        return sum(map(lshift, exps, self._shifts))

    def _reduced(self, sl: DegreeSlice, terms) -> list[int]:
        """sl.den times the normal form of sum(c * m), for pairs (k, c) of
        the key k of a monomial m of sl's degree and an integer, as its
        coefficients on sl.basis: the sum of the c times m's row."""
        out = [0] * len(sl.basis)
        nf = sl.nf
        for key, c in terms:
            for j, x in nf[key]:
                out[j] += c * x
        return out

    def normal_form(self, p: MultiPolynomial) -> MultiPolynomial:
        """Reduce a homogeneous polynomial onto the non-pivot monomial basis
        of its degree.  normal_form(p) = 0 iff p lies in the ideal."""
        if p.is_zero():
            return p
        if not p.is_homogeneous():
            raise ValueError("normal_form expects a homogeneous polynomial")
        sl = self._slice(p.degree())
        terms, den = _integral(p, self._key)
        out, den = self._reduced(sl, terms), den * sl.den
        return MultiPolynomial(self.ring, {
            m: Fraction(x, den) for m, x in zip(sl.basis, out) if x})

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
        return tuple(exps), parse_rational(term["coeff"])
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
            raise GiambelliFormatError(
                f"cannot read dictionary file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise GiambelliFormatError("dictionary must be a JSON object")
    out: dict[str, MultiPolynomial] = {}
    for label, terms in raw.items():
        if label not in DEGREES:
            raise GiambelliFormatError(
                f"unknown label {label!r} in dictionary")
        if not isinstance(terms, list):
            raise GiambelliFormatError(f"terms of {label} must be a list")
        acc: dict = {}  # repeated exponents sum; a zero sum drops out at once
        for term in terms:
            exps, c = _parse_monomial(label, term, len(ring.names))
            acc[exps] = acc.get(exps, 0) + c
            if not acc[exps]:
                del acc[exps]
        poly = MultiPolynomial(ring, acc)
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


def _change_of_basis(quotient: GradedQuotient, entries, degree: int):
    """One degree's change of basis M: column (label, c), for each
    q^c * G(label) with deg(label) + 4c = degree, is the normal form of
    q^c * G(label), reduced in the degree's slice from entries[label], the
    entry's integer terms and denominator as _entry gives them, their keys
    shifted by the key of q^c.  Returns (sl, m_den, columns): the slice,
    and for each column's (label index, c), in label order, its integers
    in m_den * M at sl.basis.  A degree past max_degree raises
    DegreeOutOfRange."""
    sl = quotient._slice(degree)
    (q_exps,) = quotient.ring.gen("q").terms
    q_key = quotient._key(q_exps)
    columns = {}  # per column: its integers at sl.basis, and their den
    for label, qexp in _columns(degree):
        terms, den = entries[label]
        columns[LABEL_INDEX[label], qexp] = quotient._reduced(sl, [
            (key + qexp * q_key, c) for key, c in terms]), den * sl.den
    m_den = lcm(*[d for _, d in columns.values()])
    return sl, m_den, {t: [x * (m_den // d) for x in column]
                       for t, (column, d) in columns.items()}


def _expansions(sl: DegreeSlice, m_den: int, columns, products) -> list:
    """For each (nf, den) of products, the Terms of the solution x of
    M x = NF(p), or the exception that decides it has none or no unique
    one, for a change of basis from _change_of_basis and p = sum(c * m) /
    den, for pairs (k, c) of the key k of a monomial m of the degree and
    an integer c, and a positive integer den.  nf = quotient._reduced(sl,
    pairs) is NF(p) times den * sl.den, as normal_form reduces it.  One
    solve_columns of the rows [m_den * M | nf ...], one per entry of nf,
    decides them all, so with an empty slice any column is free."""
    k = len(columns)
    reduced, failures = solve_columns([list(row) for row in zip(
        *columns.values(), *[nf for nf, _ in products])], k, len(products))
    out = []
    for j, ((_, den), failure) in enumerate(zip(products, failures), k):
        if failure:
            out.append(failure)
            continue
        # m_den * M x = nf * m_den / (sl.den * den)
        terms: Terms = {}
        for i, (t, row) in enumerate(zip(columns, reduced)):
            x, d = row[j] * m_den, row[i] * sl.den * den
            if x:
                terms[t] = Fraction(x, d) if x % d else x // d
        out.append(terms)
    return out


def _integral(p: MultiPolynomial, key):
    """The terms of p with integer coefficients, each monomial m as
    key(m), and their denominator."""
    ints, den = clear_denominators(list(p.terms.values()))
    return list(zip(map(key, p.terms), ints)), den


def _entry(label: str, p: MultiPolynomial, key):
    """The terms and denominator of _integral(p, key) for the dictionary
    entry p of label, the one check of the products pass's input: p is zero
    or homogeneous of label's degree, as load_giambelli and the derivation
    make it, or GiambelliFormatError is raised with the loader's message."""
    if {p.ring.monomial_degree(m) for m in p.terms} - {DEGREES[label]}:
        raise GiambelliFormatError(
            f"dictionary entry for {label} is not homogeneous of "
            f"degree {DEGREES[label]}")
    return _integral(p, key)


def expand_in_schubert(quotient: GradedQuotient,
                       giambelli: dict[str, MultiPolynomial],
                       p: MultiPolynomial) -> SchubertElement:
    """Rewrite a homogeneous polynomial, via its normal form, as an exact
    combination of q-power multiples of Schubert classes."""
    if p.is_zero():
        return SchubertElement.zero()
    degree = p.degree()
    terms, den = _integral(p, quotient._key)
    basis = _change_of_basis(quotient, {
        label: _entry(label, giambelli[label], quotient._key)
        for label, _ in _columns(degree)}, degree)
    (result,) = _expansions(*basis, [(quotient._reduced(basis[0], terms),
                                      den)])
    if isinstance(result, Exception):
        raise result
    return SchubertElement.from_terms(result)


class _PackedDegree:
    """One degree's change of basis in one products pass, packed so that a
    product is checked by one integer compare.  Each column of m_den * M
    and each normal-form row of the slice is one int, with field i, width
    bits wide, its entry at basis position i.  With most = (the largest
    entry denominator squared times the largest table-entry L1 norm, the
    largest entry L1 norm squared), known before the first product, and
    the largest column and row entries, the width bounds each field of a
    compare's difference below 2^(width - 1): each field is a balanced
    digit, so the difference is zero iff every field is."""

    def __init__(self, quotient: GradedQuotient, entries, degree: int,
                 most: tuple[int, int]):
        self.basis = sl, m_den, columns = _change_of_basis(
            quotient, entries, degree)
        self.full = len(columns) == len(
            rref_int(list(columns.values()))[1])
        col_max = max([abs(x) for column in columns.values()
                       for x in column], default=0)
        row_max = max([abs(x) for row in sl.nf.values() for _, x in row],
                      default=0)
        self.width = width = (sl.den * most[0] * col_max
                              + m_den * most[1] * row_max).bit_length() + 1
        shifts = range(0, width * len(sl.basis), width)
        self.columns = {t: sum(map(lshift, column, shifts))
                        for t, column in columns.items()}
        self.rows = {key: sum([x << width * j for j, x in row])
                     for key, row in sl.nf.items()}

    def matches(self, terms_a, terms_b, den: int, want: Terms) -> bool:
        """Whether want is the expansion of the product p of two entries'
        integer terms over den, where M has full column rank: M want =
        NF(p), both sides times m_den * sl.den * den, packed.  False also
        for a want with a Fraction coefficient or a class of no column of
        this degree, whose fields the width does not bound."""
        lhs = 0  # m_den * M want, packed
        for t, c in want.items():
            column = self.columns.get(t)
            if column is None or type(c) is not int:
                return False
            lhs += c * column
        sl, m_den, _ = self.basis
        rows, rhs = self.rows, 0  # den * sl.den * NF(p), packed
        for ka, ca in terms_a:
            for kb, cb in terms_b:
                rhs += ca * cb * rows[ka + kb]
        return lhs * sl.den * den == rhs * m_den


def mismatched_products(table: MultiplicationTable, quotient: GradedQuotient,
                        giambelli: dict[str, MultiPolynomial]):
    """The (a, b, result) of the 120 unordered products of dictionary
    entries through the quotient, in table order, whose result is the
    exception its expansion raised (InconsistentSystem or
    UnderdeterminedSystem from _expansions, DegreeOutOfRange past
    max_degree) or differs from the table entry c, compared on terms;
    result is then a SchubertElement.  Any other exception propagates.

    Each entry is checked and scaled to integers once, with its monomials
    as keys (_entry), before the first product: a missing one raises
    KeyError, and one that is neither zero nor homogeneous of its label's
    degree GiambelliFormatError.  A product's degree is then the sum of
    its labels' degrees, and each degree's change of basis M is built and
    packed once (_PackedDegree).  p is decided as M c = NF(p), one packed
    integer compare, where M has full column rank; the products that fail
    it, whose c is not integral or has a class of no column, or whose M is
    rank-deficient, are decided together, one solve per degree
    (_expansions), after the last compare.
    """
    entries = {label: _entry(label, giambelli[label], quotient._key)
               for label in LABELS}
    den_max = max([den for _, den in entries.values()])
    l1_max = max([sum([abs(c) for _, c in terms])
                  for terms, _ in entries.values()])
    # a Fraction table entry is never compared; its ceiling only widens
    # the fields
    table_max = ceil(max([sum(map(abs, terms.values()))
                          for terms in table.constants.values()],
                         default=0))
    most = den_max * den_max * table_max, l1_max * l1_max
    # per degree, built on first use; nothing is kept for a degree whose
    # columns raise, so its failure repeats
    states: dict[int, _PackedDegree] = {}
    found = []  # [a, b, want, result] of each product no compare decided
    unsolved = {}  # per degree: the index in found and (nf, den) of each
    for i, a in enumerate(LABELS):
        terms_a, den_a = entries[a]
        for b in LABELS[i:]:
            terms_b, den_b = entries[b]
            want = table.tensor[LABEL_INDEX[a]][LABEL_INDEX[b]]
            # the ring is a domain: the product is zero only when a factor
            # is
            if not (terms_a and terms_b):
                found.append([a, b, want, {}])
                continue
            degree = DEGREES[a] + DEGREES[b]
            if degree not in states:
                try:
                    states[degree] = _PackedDegree(quotient, entries, degree,
                                                   most)
                except DegreeOutOfRange as exc:
                    found.append([a, b, want, exc])
                    continue
            state, den = states[degree], den_a * den_b
            if state.full and state.matches(terms_a, terms_b, den, want):
                continue
            at, rhs = unsolved.setdefault(degree, ([], []))
            at.append(len(found))
            rhs.append((quotient._reduced(state.basis[0], [
                (ka + kb, ca * cb)
                for ka, ca in terms_a for kb, cb in terms_b]), den))
            found.append([a, b, want, None])
    for degree, (at, rhs) in unsolved.items():
        for i, result in zip(at, _expansions(*states[degree].basis, rhs)):
            found[i][3] = result
    for a, b, want, result in found:
        if isinstance(result, Exception):
            yield a, b, result
        elif result != want:  # no table holds a zero coefficient
            yield a, b, SchubertElement.from_terms(result)


def products_key(quotient: GradedQuotient,
                 giambelli: dict[str, MultiPolynomial]):
    """What the products through the quotient depend on: its ring,
    max_degree and relations, and each entry's zero-ness and normal form.
    Equal keys give equal products and exceptions for dictionaries that
    keep _entry's contract, as loaded and derived ones do."""
    entries = [(p.is_zero(), quotient.normal_form(p).terms)
               for p in [giambelli[label] for label in LABELS]]
    ring = quotient.ring
    return (ring.names, ring.degrees, quotient.max_degree,
            [rel.terms for rel in quotient.relations], entries)


def cross_check_presentation(table: MultiplicationTable,
                             quotient: GradedQuotient,
                             giambelli: dict[str, MultiPolynomial],
                             mismatches: list | None = None):
    """Three-way consistency of table, relations, and dictionary.

    (i) the table kills both relations; (ii) each Giambelli polynomial
    evaluates to its own class; (iii) every unordered product through the
    quotient matches the table entry c: M c = NF(p), and only the products
    that fail it are solved for (mismatched_products).  mismatches, if
    given, is the list of mismatched_products for these arguments.
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
        mismatches = list(mismatched_products(table, quotient, giambelli))
    first = [(a, b, f"expansion failed: {result}"
              if isinstance(result, Exception) else str(result))
             for a, b, result in mismatches[:3]]
    report.add("products_match", not mismatches,
               "" if not mismatches else f"{len(mismatches)} mismatches, "
               f"first: {first}")
    return report
