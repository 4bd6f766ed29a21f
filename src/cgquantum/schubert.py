"""Quantum cohomology of the Cayley Grassmannian in its Schubert basis.

The ring is an 8-graded, 15-dimensional free module over Q[q] with deg q = 4.
The ground truth is a multiplication table shipped as JSON; this module
provides the bilinear product, the Poincare pairing, Gromov-Witten invariant
extraction, and an exhaustive self-consistency suite over the table.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .exactmath import QPolynomial, Rational, rat

LABELS = ("s0", "s1", "s2", "s2p", "s3", "s3p", "s4", "s4p", "s4pp",
          "s5", "s5p", "s6", "s6p", "s7", "s8")

DEGREES = {"s0": 0, "s1": 1, "s2": 2, "s2p": 2, "s3": 3, "s3p": 3,
           "s4": 4, "s4p": 4, "s4pp": 4, "s5": 5, "s5p": 5,
           "s6": 6, "s6p": 6, "s7": 7, "s8": 8}

# Poincare duality involution: pairing <a, dual(a)> = 1, all other basis
# pairs in complementary degree pair to 0.
DUALS = {"s0": "s8", "s1": "s7", "s2": "s6", "s2p": "s6p", "s3": "s5",
         "s3p": "s5p", "s4": "s4", "s4p": "s4p", "s4pp": "s4pp",
         "s5": "s3", "s5p": "s3p", "s6": "s2", "s6p": "s2p",
         "s7": "s1", "s8": "s0"}

DIMENSION = 8   # complex dimension of the variety
Q_DEGREE = 4    # Fano index, the degree of the quantum parameter

LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}


# {(class index in LABELS, q-exponent): coefficient}
Terms = dict[tuple[int, int], Rational]


class TableFormatError(ValueError):
    """The table file does not match the documented schema."""


class SchubertElement:
    """A vector over the 15 Schubert classes with Q[q] coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[str, QPolynomial] | None = None):
        self.coeffs: dict[str, QPolynomial] = {}
        if coeffs:
            for label, poly in coeffs.items():
                if label not in DEGREES:
                    raise KeyError(f"unknown label {label!r}")
                if not poly.is_zero():
                    self.coeffs[label] = poly

    @classmethod
    def basis(cls, label: str) -> "SchubertElement":
        return cls({label: QPolynomial.constant(1)})

    @classmethod
    def zero(cls) -> "SchubertElement":
        return cls()

    @classmethod
    def from_terms(cls, terms: Terms) -> "SchubertElement":
        """The element with these terms; zero coefficients drop out."""
        coeffs: dict[str, dict[int, Rational]] = {}
        for (k, e), c in terms.items():
            if c:
                coeffs.setdefault(LABELS[k], {})[e] = c
        return cls({l: QPolynomial(p) for l, p in coeffs.items()})

    def terms(self) -> Terms:
        """Integral coefficients as ints, any other as an exact Fraction."""
        return {(LABEL_INDEX[l], e): c.numerator if c.denominator == 1 else c
                for l, poly in self.coeffs.items() for e, c in poly.coeffs.items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, label: str) -> QPolynomial:
        return self.coeffs.get(label, QPolynomial({}))

    def __add__(self, other: "SchubertElement") -> "SchubertElement":
        out = dict(self.coeffs)
        for label, poly in other.coeffs.items():
            out[label] = out.get(label, QPolynomial({})) + poly
        return SchubertElement(out)

    def __sub__(self, other: "SchubertElement") -> "SchubertElement":
        return self + -other

    def __neg__(self) -> "SchubertElement":
        return SchubertElement({l: -p for l, p in self.coeffs.items()})

    def scale(self, c) -> "SchubertElement":
        return SchubertElement({l: p.scale(c) for l, p in self.coeffs.items()})

    def drop_quantum(self) -> "SchubertElement":
        """Keep only the q^0 part (the classical cup product contribution)."""
        return SchubertElement({
            l: QPolynomial({0: p.coeff(0)}) for l, p in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, SchubertElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        # q ascending, then label order
        terms = sorted(((e, label, c) for label, poly in self.coeffs.items()
                        for e, c in poly.coeffs.items()),
                       key=lambda t: (t[0], LABEL_INDEX[t[1]]))
        if not terms:
            return "0"
        parts = []
        for e, label, c in terms:
            qpart = "" if e == 0 else ("q*" if e == 1 else f"q^{e}*")
            if c == 1 and (qpart or label):
                parts.append(f"{qpart}{label}")
            else:
                parts.append(f"{c}*{qpart}{label}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SchubertElement({self})"


def _label_index(label) -> int | None:
    return LABEL_INDEX.get(label) if isinstance(label, str) else None


def _records(value, what: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
        raise TableFormatError(f"{what} must be a list of objects")
    return value


def _parse_term(term: dict, pair) -> tuple[int, int, Fraction]:
    k, e = _label_index(term.get("label")), term.get("q")
    if k is None or type(e) is not int or e < 0 or "coeff" not in term:
        raise TableFormatError(f"term of {pair} needs a known 'label', an "
                               f"integer 'q' >= 0 and a 'coeff': {term!r}")
    try:
        return k, e, Fraction(term["coeff"])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise TableFormatError(f"bad coefficient in {pair}: {term!r}") from None


class MultiplicationTable:
    """The symmetric 15x15 table of quantum products as exact structure
    constants.  constants[(i, j)] (i <= j, in file order) and tensor[i][j]
    (either order) map (k, e) to the coefficient of q^e * s_k in s_i * s_j:
    an int, or an exact Fraction where the data is not integral.  The
    q-exponent is kept as given, so a mis-graded term fails the grading check."""

    def __init__(self, constants: dict[tuple[int, int], Terms]):
        self.constants = constants
        n = len(LABELS)
        self.tensor = [[constants[min(i, j), max(i, j)] for j in range(n)]
                       for i in range(n)]

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MultiplicationTable":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise TableFormatError(f"cannot read table file {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "MultiplicationTable":
        if not isinstance(raw, dict) or "labels" not in raw or "products" not in raw:
            raise TableFormatError("table must have 'labels' and 'products'")
        labels = _records(raw["labels"], "'labels'")
        if tuple(rec.get("name") for rec in labels) != LABELS:
            raise TableFormatError("label list does not match the 15 expected labels")
        for rec in labels:
            if DEGREES[rec["name"]] != rec.get("degree"):
                raise TableFormatError(f"degree mismatch for {rec['name']}")
        constants: dict[tuple[int, int], Terms] = {}
        for rec in _records(raw["products"], "'products'"):
            a, b = _label_index(rec.get("a")), _label_index(rec.get("b"))
            if a is None or b is None:
                raise TableFormatError(
                    f"unknown labels in product record {rec.get('a')},{rec.get('b')}")
            key = (min(a, b), max(a, b))
            pair = (LABELS[key[0]], LABELS[key[1]])
            if key in constants:
                raise TableFormatError(f"duplicate product record {pair}")
            acc: Terms = {}
            for term in _records(rec.get("terms", []), f"terms of {pair}"):
                k, e, c = _parse_term(term, pair)
                acc[k, e] = acc.get((k, e), 0) + c
            # repeated terms add up; zero sums drop out and the terms are
            # grouped by class in order of first appearance, integral
            # coefficients as ints
            by_class: dict[int, dict[int, Rational]] = {}
            for (k, e), c in acc.items():
                if c:
                    by_class.setdefault(k, {})[e] = \
                        c.numerator if c.denominator == 1 else c
            constants[key] = {(k, e): c for k, cs in by_class.items()
                              for e, c in cs.items()}
        expected = (len(LABELS) * (len(LABELS) + 1)) // 2
        if len(constants) != expected:
            raise TableFormatError(
                f"expected {expected} product records, found {len(constants)}")
        return cls(constants)

    def basis_product(self, a: str, b: str) -> SchubertElement:
        terms = self.tensor[LABEL_INDEX[a]][LABEL_INDEX[b]]
        return SchubertElement.from_terms(terms)

    def with_entry(self, a: str, b: str,
                   value: SchubertElement) -> "MultiplicationTable":
        """Copy of the table with one entry replaced (for fault injection)."""
        i, j = sorted((LABEL_INDEX[a], LABEL_INDEX[b]))
        return MultiplicationTable({**self.constants, (i, j): value.terms()})

    def times(self, terms: Terms, c: int) -> Terms:
        """terms times the basis class of index c, zero coefficients
        dropped."""
        tensor = self.tensor
        acc: Terms = {}
        for (k, e), x in terms.items():
            for (m, f), y in tensor[k][c].items():
                acc[m, e + f] = acc.get((m, e + f), 0) + x * y
        return {key: v for key, v in acc.items() if v}


def quantum_product(table: MultiplicationTable, x: SchubertElement,
                    y: SchubertElement) -> SchubertElement:
    """Bilinear extension of the table; q-coefficients multiply through."""
    acc: Terms = {}
    y_terms = y.terms()
    for (i, ei), ci in x.terms().items():
        row = table.tensor[i]
        for (j, ej), cj in y_terms.items():
            w, shift = ci * cj, ei + ej
            for (k, e), c in row[j].items():
                key = (k, e + shift)
                acc[key] = acc.get(key, 0) + w * c
    return SchubertElement.from_terms(acc)


def classical_product(table: MultiplicationTable, x: SchubertElement,
                      y: SchubertElement) -> SchubertElement:
    """Cup product: the quantum product with all positive q-powers dropped."""
    return quantum_product(table, x, y).drop_quantum()


def poincare_pairing(table: MultiplicationTable, x: SchubertElement,
                     y: SchubertElement) -> Rational:
    """Coefficient of s8 in the classical product."""
    return classical_product(table, x, y).coeff("s8").coeff(0)


def gw_invariant(table: MultiplicationTable, d: int, a: str, b: str,
                 c: str) -> Rational:
    """Three-point degree-d invariant I_d(a, b, c).

    Returns 0 whenever the degrees do not sum to 8 + 4d, so exhaustive
    symmetry scans need no special-casing.
    """
    if d < 0 or DEGREES[a] + DEGREES[b] + DEGREES[c] != DIMENSION + Q_DEGREE * d:
        return rat(0)
    terms = table.tensor[LABEL_INDEX[a]][LABEL_INDEX[b]]
    return rat(terms.get((LABEL_INDEX[DUALS[c]], d), 0))


# rows of the hyperplane-class product in degrees four through seven;
# below degree four the product has no quantum correction.
CHEVALLEY_ROWS = {
    "s3": {("s4", 0): 2, ("s4p", 0): 2, ("s0", 1): 2},
    "s3p": {("s4p", 0): 1, ("s4pp", 0): 1},
    "s4": {("s5", 0): 2, ("s1", 1): 1},
    "s4p": {("s5", 0): 2, ("s5p", 0): 1, ("s1", 1): 1},
    "s4pp": {("s5p", 0): 1},
    "s5": {("s6", 0): 1, ("s6p", 0): 2, ("s2p", 1): 1},
    "s5p": {("s6", 0): 3, ("s6p", 0): 2, ("s2", 1): 1},
    "s6": {("s7", 0): 1, ("s3p", 1): 1},
    "s6p": {("s7", 0): 1, ("s3", 1): 1},
}


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(check_id, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "checks": [{"id": c.check_id,
                            "status": "pass" if c.passed else "fail",
                            "detail": c.detail} for c in self.checks]}


def verify_table(table: MultiplicationTable) -> VerificationReport:
    """Exhaustive internal consistency suite over the table.

    Checks: identity row, grading, coefficient non-negativity and
    integrality, pairing permutation matrices, total symmetry of the
    invariants, associativity over all ordered basis triples, and the
    hyperplane rows in degrees up to seven.
    """
    report = VerificationReport()
    tensor, idx = table.tensor, range(len(LABELS))
    deg = [DEGREES[l] for l in LABELS]
    dual = [LABEL_INDEX[DUALS[l]] for l in LABELS]

    def add(check_id: str, bad: list, detail: str):
        report.add(check_id, not bad, detail if bad else "")

    bad = [LABELS[i] for i in idx if tensor[0][i] != {(i, 0): 1}]
    add("identity", bad, f"s0 row wrong at {bad}")

    bad_grading, bad_positive = [], []
    for (i, j), terms in table.constants.items():
        for (k, e), c in terms.items():
            where = (LABELS[i], LABELS[j], LABELS[k], e)
            if deg[k] + Q_DEGREE * e != deg[i] + deg[j]:
                bad_grading.append(where)
            if c < 0 or c.denominator != 1:
                bad_positive.append(where + (str(c),))
    add("grading", bad_grading, f"non-homogeneous entries: {bad_grading[:3]}")
    add("positivity", bad_positive,
        f"negative or non-integer coefficients: {bad_positive[:3]}")

    # pairing matrix per complementary degree must be the involution's
    # permutation matrix
    top = (LABEL_INDEX["s8"], 0)
    bad_pairs = [(LABELS[a], LABELS[b], str(tensor[a][b].get(top, 0)))
                 for a, b in product(idx, idx) if deg[a] + deg[b] == DIMENSION
                 and tensor[a][b].get(top, 0) != int(dual[a] == b)]
    add("pairing", bad_pairs, f"pairing mismatches: {bad_pairs[:3]}")

    def gw(d: int, a: int, b: int, c: int) -> Rational:
        return tensor[a][b].get((dual[c], d), 0)

    bad_sym = []
    for a, b, c in product(idx, idx, idx):
        d, rest = divmod(deg[a] + deg[b] + deg[c] - DIMENSION, Q_DEGREE)
        if rest or d < 0:
            continue
        for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            if gw(d, *perm) != gw(d, a, b, c):
                bad_sym.append((d, LABELS[a], LABELS[b], LABELS[c],
                                tuple(LABELS[x] for x in perm)))
                break
    add("gw_symmetry", bad_sym, f"asymmetric invariants: {bad_sym[:3]}")

    # with (ba)c = (ab)c and (bc)a = a(bc), the triple (a, b, c) is
    # associative iff (bx)y is symmetric in x, y at x = a, y = c
    bad_assoc = []
    times = table.times
    for b in idx:
        bxy = [[times(tensor[b][x], y) for y in idx] for x in idx]
        bad_assoc += [(a, b, c) for a, c in product(idx, idx)
                      if bxy[a][c] != bxy[c][a]]
    bad_assoc = [tuple(LABELS[i] for i in t) for t in sorted(bad_assoc)]
    add("associativity", bad_assoc,
        f"{len(bad_assoc)} failing triples, first: {bad_assoc[:3]}")

    bad_chev = []
    s1 = LABEL_INDEX["s1"]
    for label in ("s0", "s1", "s2", "s2p"):
        if any(e > 0 for _, e in tensor[LABEL_INDEX[label]][s1]):
            bad_chev.append((label, "unexpected quantum term"))
    for label, want in CHEVALLEY_ROWS.items():
        row = tensor[LABEL_INDEX[label]][s1].items()
        if {(LABELS[k], e): c for (k, e), c in row} != want:
            bad_chev.append((label, str(table.basis_product(label, "s1"))))
    add("chevalley_rows", bad_chev, f"hyperplane row mismatches: {bad_chev[:3]}")

    return report


def default_data_dir() -> str:
    env = os.environ.get("CG_DATA_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")


def load_default_table() -> MultiplicationTable:
    return MultiplicationTable.load(
        os.path.join(default_data_dir(), "cg_table.json"))
