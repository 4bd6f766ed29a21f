"""Quantum cohomology of the Cayley Grassmannian in its Schubert basis.

The ring is an 8-graded, 15-dimensional free module over Q[q] with deg q = 4.
The ground truth is a multiplication table shipped as JSON; this module
provides the bilinear product, the Poincare pairing, Gromov-Witten invariant
extraction, and an exhaustive self-consistency suite over the table.
"""
from __future__ import annotations

import json
import os
from itertools import combinations, permutations, product
from operator import mul

from .exactmath import QPolynomial, Rational, parse_rational, rat

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


class DataFormatError(ValueError):
    """A data file is not JSON text or does not match its schema."""


class TableFormatError(DataFormatError):
    """The table file does not match the documented schema."""


def _normalised(terms: Terms) -> Terms:
    """terms without zeros, grouped by class in the order of each class's
    first nonzero term, integral coefficients as ints."""
    by_class: dict[int, dict[int, Rational]] = {}
    for (k, e), c in terms.items():
        if c:
            by_class.setdefault(k, {})[e] = \
                c.numerator if c.denominator == 1 else c
    return {(k, e): c for k, cs in by_class.items() for e, c in cs.items()}


class SchubertElement:
    """A vector over the 15 Schubert classes with Q[q] coefficients, held
    as normalised Terms."""

    __slots__ = ("_terms",)

    def __init__(self, coeffs: dict[str, QPolynomial] | None = None):
        terms: Terms = {}
        for label, poly in (coeffs or {}).items():
            if label not in LABEL_INDEX:
                raise KeyError(f"unknown label {label!r}")
            k = LABEL_INDEX[label]
            terms.update(((k, e), c) for e, c in poly.coeffs.items())
        self._terms = _normalised(terms)

    @classmethod
    def basis(cls, label: str) -> "SchubertElement":
        return cls({label: QPolynomial.monomial(0)})

    @classmethod
    def zero(cls) -> "SchubertElement":
        return cls()

    @classmethod
    def from_terms(cls, terms: Terms) -> "SchubertElement":
        """The element with these terms; zero coefficients drop out."""
        elem = cls.__new__(cls)
        elem._terms = _normalised(terms)
        return elem

    def terms(self) -> Terms:
        """The held terms, not a copy; integral coefficients are ints."""
        return self._terms

    @property
    def coeffs(self) -> dict[str, QPolynomial]:
        """The coefficient of each class present, as a polynomial in q."""
        out: dict[str, dict[int, Rational]] = {}
        for (k, e), c in self._terms.items():
            out.setdefault(LABELS[k], {})[e] = c
        return {label: QPolynomial(p) for label, p in out.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, label: str) -> QPolynomial:
        return self.coeffs.get(label, QPolynomial({}))

    def __add__(self, other: "SchubertElement") -> "SchubertElement":
        acc = dict(self._terms)
        for key, c in other._terms.items():
            acc[key] = acc.get(key, 0) + c
        return SchubertElement.from_terms(acc)

    def __sub__(self, other: "SchubertElement") -> "SchubertElement":
        return self + -other

    def __neg__(self) -> "SchubertElement":
        return SchubertElement.from_terms(
            {key: -c for key, c in self._terms.items()})

    def scale(self, c) -> "SchubertElement":
        c = rat(c)
        return SchubertElement.from_terms(
            {key: c * v for key, v in self._terms.items()})

    def drop_quantum(self) -> "SchubertElement":
        """Keep only the q^0 part (the classical cup product contribution)."""
        return SchubertElement.from_terms(
            {key: c for key, c in self._terms.items() if key[1] == 0})

    def __eq__(self, other) -> bool:
        return isinstance(other, SchubertElement) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        # q ascending, then label order
        terms = sorted(self._terms.items(), key=lambda t: (t[0][1], t[0][0]))
        if not terms:
            return "0"
        parts = []
        for (k, e), c in terms:
            qpart = "" if e == 0 else ("q*" if e == 1 else f"q^{e}*")
            if c == 1:
                parts.append(f"{qpart}{LABELS[k]}")
            else:
                parts.append(f"{c}*{qpart}{LABELS[k]}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SchubertElement({self})"


def _label_index(label) -> int | None:
    return LABEL_INDEX.get(label) if isinstance(label, str) else None


def _names(indices) -> tuple[str, ...]:
    return tuple(LABELS[i] for i in indices)


def _records(value, what: str, *pair) -> list[dict]:
    """value, a list of objects; what names it, with pair's labels."""
    if not isinstance(value, list) or not all(isinstance(r, dict) for r in value):
        raise TableFormatError(
            f"{what.format(*map(_names, pair))} must be a list of objects")
    return value


def _parse_term(term: dict, pair) -> tuple[int, int, Rational]:
    k, e = _label_index(term.get("label")), term.get("q")
    if k is None or type(e) is not int or e < 0 or "coeff" not in term:
        raise TableFormatError(f"term of {pair} needs a known 'label', an "
                               f"integer 'q' >= 0 and a 'coeff': {term!r}")
    c = term["coeff"]
    try:
        # ints stay ints, so a record sums without Fraction; bool, float
        # and str go through Fraction
        return k, e, c if type(c) is int else parse_rational(c)
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
        self.tensor = [[None] * len(LABELS) for _ in LABELS]
        for (i, j), terms in constants.items():
            self.tensor[i][j] = self.tensor[j][i] = terms

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MultiplicationTable":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
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
            degree = rec.get("degree")
            if type(degree) is not int or DEGREES[rec["name"]] != degree:
                raise TableFormatError(f"degree mismatch for {rec['name']}")
        constants: dict[tuple[int, int], Terms] = {}
        seen = [-1] * len(LABELS)  # the record each class was last seen in
        for r, rec in enumerate(_records(raw["products"], "'products'")):
            a, b = _label_index(rec.get("a")), _label_index(rec.get("b"))
            if a is None or b is None:
                raise TableFormatError(
                    f"unknown labels in product record {rec.get('a')},{rec.get('b')}")
            key = (a, b) if a <= b else (b, a)
            if key in constants:
                raise TableFormatError(f"duplicate product record {_names(key)}")
            # nonzero ints grouped by class, each (class, q) once: normalised
            acc: Terms = {}
            last, plain = -1, True
            for term in _records(rec.get("terms", []), "terms of {}", key):
                label, e, c = term.get("label"), term.get("q"), term.get("coeff")
                if type(c) is int and c and type(e) is int and e >= 0 and \
                        type(label) is str and label in LABEL_INDEX:
                    k = LABEL_INDEX[label]
                else:
                    k, e, c = _parse_term(term, _names(key))
                    plain = False
                if k != last:
                    plain, seen[k], last = plain and seen[k] != r, r, k
                plain = plain and (k, e) not in acc
                acc[k, e] = acc.get((k, e), 0) + c  # repeated terms add up
            constants[key] = acc if plain else _normalised(acc)
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
        """terms times the basis class of index c, zeros dropped."""
        row = self.tensor[c]
        acc: Terms = {}
        get = acc.get
        for (k, e), x in terms.items():
            for (m, f), y in row[k].items():
                key = m, e + f
                acc[key] = get(key, 0) + x * y
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


class CheckResult:
    def __init__(self, check_id: str, passed: bool, detail: str = ""):
        self.check_id, self.passed, self.detail = check_id, passed, detail


class VerificationReport:
    def __init__(self):
        self.checks: list[CheckResult] = []

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
    invariants (over all ordered basis triples), associativity (as the
    pairwise commutation of the multiplication operators), and the
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

    def gw(d: int, a: int, b: int, c: int) -> Rational:
        return tensor[a][b].get((dual[c], d), 0)

    # One scan of the terms checks grading and positivity, and flags each
    # asymmetric multiset {a, b, c} at an on-grade term, where one of its
    # invariants is nonzero.  Its ordered triples are reported each with its
    # first permutation with another invariant; only printed ones get labels.
    bad_grading, bad_positive, bad_sym = [], [], set()
    for (a, b), terms in table.constants.items():
        degree, ta, tb, da, db = deg[a] + deg[b], tensor[a], tensor[b], \
            dual[a], dual[b]
        for (k, d), v in terms.items():
            if deg[k] + Q_DEGREE * d != degree:
                bad_grading.append((a, b, k, d))
            elif not v == ta[dual[k]].get((db, d), 0) == \
                    tb[dual[k]].get((da, d), 0):
                bad_sym.update(((x, y, z), d, (x, z, y) if gw(d, x, z, y) !=
                                gw(d, x, y, z) else (y, z, x))
                               for x, y, z in permutations((a, b, dual[k])))
            if v < 0 or v.denominator != 1:
                bad_positive.append((a, b, k, d, v))
    add("grading", bad_grading, "non-homogeneous entries: "
        f"{[(*_names(t[:3]), t[3]) for t in bad_grading[:3]]}")
    add("positivity", bad_positive, "negative or non-integer coefficients: "
        f"{[(*_names(t[:3]), t[3], str(t[4])) for t in bad_positive[:3]]}")

    # pairing matrix per complementary degree must be the involution's
    # permutation matrix
    top = (LABEL_INDEX["s8"], 0)
    bad_pairs = [(LABELS[a], LABELS[b], str(tensor[a][b].get(top, 0)))
                 for a, b in product(idx, idx) if deg[a] + deg[b] == DIMENSION
                 and tensor[a][b].get(top, 0) != int(dual[a] == b)]
    add("pairing", bad_pairs, f"pairing mismatches: {bad_pairs[:3]}")

    # The table is commutative, so (xy)z = L_z L_x y and (zy)x = L_x L_z y
    # for L_x multiplication by s_x: (x, y, z) is associative iff column y
    # of [L_x, L_z] is zero.  commutator(x, z) lists its nonzero columns.
    if bad_grading or any(type(v) is not int for *_, v in bad_positive):
        def commutator(x: int, z: int) -> list[int]:
            return [y for y in idx if table.times(tensor[x][y], z) !=
                    table.times(tensor[z][y], x)]
    else:
        # A term of (xy)z has 4e + deg m = deg x + deg y + deg z: its value
        # at q = 1 fixes it, and its classes m have one degree mod 4, each
        # its own slot there.  With packed[z][k] = s_k * s_z as the sum of c
        # * 2^slot[m], sum_k cols[x][k] * packed[z][k] holds (xy)z
        # in field y of span = 5 * width bits; a coefficient of (xy)z - (zy)x
        # is below 2^(width - 1), so each field of it is a balanced digit,
        # nonzero iff column y of the commutator is.
        row_sum = max([sum(map(abs, terms.values()))
                       for terms in table.constants.values()])
        width = (2 * row_sum * row_sum).bit_length() + 1
        slot = [width * [d % Q_DEGREE for d in deg[:m]].count(deg[m] % Q_DEGREE)
                for m in idx]
        span = max(slot) + width
        mask, half = (1 << span) - 1, 1 << span - 1
        packed = [[0] * len(idx) for _ in idx]
        cols = [[0] * len(idx) for _ in idx]
        for (i, j), terms in table.constants.items():
            ci, cj, si, sj, p = cols[i], cols[j], span * i, span * j, 0
            for (k, _), c in terms.items():
                p += c << slot[k]
                ci[k] += c << sj
                if i != j:
                    cj[k] += c << si
            packed[i][j] = packed[j][i] = p

        def commutator(x: int, z: int) -> list[int]:
            diff = sum(map(mul, cols[x], packed[z])) - \
                sum(map(mul, cols[z], packed[x]))
            bad = []
            for y in idx:
                if not diff:
                    break
                digit = diff & mask
                if digit:
                    bad.append(y)
                diff = (diff >> span) + (digit > half)
            return bad

    bad_sym = sorted(bad_sym)
    add("gw_symmetry", bad_sym, "asymmetric invariants: "
        f"{[(d, *_names(t), _names(perm)) for t, d, perm in bad_sym[:3]]}")
    bad_assoc = sorted([t for x, z in combinations(idx, 2) for y in
                        commutator(x, z) for t in ((x, y, z), (z, y, x))])
    add("associativity", bad_assoc, f"{len(bad_assoc)} failing triples, "
        f"first: {[_names(t) for t in bad_assoc[:3]]}")

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
