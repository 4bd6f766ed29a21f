"""Re-derivation of the quantum ring from the degree-one curve counts.

Order of play: the twelve scenario outputs pin down the ten unknown
coefficients of the hyperplane-product ansatz; the two remaining products
follow; Giambelli polynomials are then solved degree by degree, throwing
off the degree-five and degree-six relations; the last unknown comes from
the top-row consistency equation; and the loop is closed by recomputing
the whole table through the presentation and diffing against the shipped
data.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import (GradedRing, InconsistentSystem, MultiPolynomial,
                        QPolynomial, UnderdeterminedSystem, rat, solve_linear)
from .presentation import (GradedQuotient, build_graded_basis,
                           generator_ring, mismatched_products)
from .schubert import (DEGREES, DUALS, LABELS, MultiplicationTable,
                       SchubertElement)

# restrictions of ambient Schubert classes to the 15-class basis
RESTRICTIONS = {
    "2": {"s2": 1},
    "11": {"s2p": 1},
    "3": {"s3p": 1},
    "111": {"s3": 1},
    "1111": {"s4": 1},
    "211": {"s4": 1, "s4p": 2},
    "22": {"s4": 1, "s4p": 1, "s4pp": 1},
    "31": {"s4p": 1, "s4pp": 1},
    "2111": {"s5": 2},
    "221": {"s5": 3, "s5p": 1},
    "311": {"s5": 1, "s5p": 1},
    "32": {"s5": 1, "s5p": 1},
    "2211": {"s6": 1, "s6p": 3},
    "222": {"s6": 2, "s6p": 2},
    "321": {"s6": 3, "s6p": 3},
    "33": {"s6": 1, "s6p": 1},
    "3111": {"s6": 1, "s6p": 1},
}

UNKNOWN_NAMES = ("a3", "a3p", "a4", "a4p", "a4pp", "a5", "b5", "a5p", "b5p")

# the symmetric ansatz for the q-linear part of each hyperplane row:
# label -> {target label: unknown}.  The same unknown appearing twice
# encodes the symmetry of the invariants.
ANSATZ = {
    "s3": {"s0": "a3"},
    "s3p": {"s0": "a3p"},
    "s4": {"s1": "a4"},
    "s4p": {"s1": "a4p"},
    "s4pp": {"s1": "a4pp"},
    "s5": {"s2": "a5", "s2p": "b5"},
    "s5p": {"s2": "a5p", "s2p": "b5p"},
    "s6": {"s3": "a5", "s3p": "a5p"},
    "s6p": {"s3": "b5", "s3p": "b5p"},
    "s7": {"s4": "a4", "s4p": "a4p", "s4pp": "a4pp"},
    "s8": {"s5": "a3", "s5p": "a3p"},
}

# each scenario measures a two-point invariant of a pair of (possibly
# pulled back) classes; expand both sides through RESTRICTIONS
SCENARIO_PAIRS = {
    "4.1.1": ("111", "s8"),
    "4.1.2": ("3", "s8"),
    "4.1.3": ("1111", "s7"),
    "4.1.4": ("211", "s7"),
    "4.1.5": ("22", "s7"),
    "4.1.6": ("2111", "s6p"),
    "4.1.7": ("221", "s6p"),
    "4.1.8": ("2111", "2211"),
    "4.1.9": ("32", "2211"),
}

CHEVALLEY_SCENARIOS = tuple(sorted(SCENARIO_PAIRS))
ALL_SCENARIOS = CHEVALLEY_SCENARIOS + ("4.2.1", "4.2.2", "4.2.3")


@dataclass
class ChevalleyUnknowns:
    a3: Fraction
    a3p: Fraction
    a4: Fraction
    a4p: Fraction
    a4pp: Fraction
    a5: Fraction
    b5: Fraction
    a5p: Fraction
    b5p: Fraction

    def as_tuple(self):
        return (self.a3, self.a3p, self.a4, self.a4p, self.a4pp,
                self.a5, self.b5, self.a5p, self.b5p)

    def __getitem__(self, name: str) -> Fraction:
        return getattr(self, name)


def _expand(side: str) -> dict[str, int]:
    if side in DEGREES:
        return {side: 1}
    return RESTRICTIONS[side]


def solve_chevalley(scenario_values: dict[str, Fraction]) -> ChevalleyUnknowns:
    """Invert the restriction linear system for the nine degree-one
    unknowns; the tenth (the q^2 coefficient of the top row) is left for
    the presentation stage.

    Raises UnderdeterminedSystem if a scenario value is missing and
    InconsistentSystem if the values contradict or produce non-integral
    or negative coefficients.
    """
    rows, rhs = [], []
    for sid in CHEVALLEY_SCENARIOS:
        if sid not in scenario_values:
            continue
        left, right = SCENARIO_PAIRS[sid]
        row = [rat(0)] * len(UNKNOWN_NAMES)
        for la, ca in _expand(left).items():
            for lb, cb in _expand(right).items():
                unknown = ANSATZ[la].get(DUALS[lb])
                if unknown is not None:
                    row[UNKNOWN_NAMES.index(unknown)] += ca * cb
        rows.append(row)
        rhs.append(rat(scenario_values[sid]))
    if not rows:
        raise UnderdeterminedSystem("no scenario values supplied")
    sol = solve_linear(rows, rhs)
    for name, value in zip(UNKNOWN_NAMES, sol):
        if value.denominator != 1 or value < 0:
            raise InconsistentSystem(
                f"{name} = {value} is not a non-negative integer")
    return ChevalleyUnknowns(*sol)


def _classical_row(table: MultiplicationTable, a: str, b: str) -> dict[str, Fraction]:
    elem = table.basis_product(a, b)
    return {label: poly.coeff(0) for label, poly in elem.coeffs.items()
            if poly.coeff(0)}


def derive_missing_products(table: MultiplicationTable,
                            scenario_values: dict[str, Fraction]
                            ) -> tuple[SchubertElement, SchubertElement]:
    """The two products outside the hyperplane rows.

    Classical parts are read off the q = 0 slice of the table; the
    quantum corrections come from the three extra counts: the square of
    the degree-two generator gains nothing, the degree-six product gains
    its two q-linear terms.
    """
    for sid in ("4.2.1", "4.2.2", "4.2.3"):
        if sid not in scenario_values:
            raise UnderdeterminedSystem(f"scenario {sid} value missing")
    i_228 = rat(scenario_values["4.2.1"])
    i_246p = rat(scenario_values["4.2.2"])
    # the last count bundles two invariants: value = I(s2,s4,s6) + I(s2,s4,s6p)
    i_246 = rat(scenario_values["4.2.3"]) - i_246p

    s2_sq = table.basis_product("s2", "s2").drop_quantum()
    if i_228:
        s2_sq = s2_sq + SchubertElement({"s0": QPolynomial.monomial(1, i_228)})

    s4_s2 = table.basis_product("s4", "s2").drop_quantum()
    quantum = {}
    if i_246:
        quantum["s2"] = QPolynomial.monomial(1, i_246)
    if i_246p:
        quantum["s2p"] = QPolynomial.monomial(1, i_246p)
    return s2_sq, s4_s2 + SchubertElement(quantum)


@dataclass
class DerivedPresentation:
    relations: list[MultiPolynomial]
    giambelli: dict[str, MultiPolynomial]
    a7: Fraction


def _solve_polys(coeff_rows, rhs_polys, ring, degree):
    """Solve sum_j coeff_rows[i][j] * G_j = rhs_polys[i] for polynomials
    G_j, coefficient by coefficient on the monomials of the degree."""
    monos = ring.monomials(degree)
    k = len(coeff_rows[0])
    sols = {j: {} for j in range(k)}
    a = [[rat(c) for c in row] for row in coeff_rows]
    for mono in monos:
        b = [p.coeff(mono) for p in rhs_polys]
        x = solve_linear(a, b)
        for j in range(k):
            if x[j]:
                sols[j][mono] = x[j]
    return [MultiPolynomial(ring, sols[j]) for j in range(k)]


def derive_presentation(table: MultiplicationTable,
                        unknowns: ChevalleyUnknowns,
                        missing_products: tuple[SchubertElement, SchubertElement]
                        ) -> DerivedPresentation:
    """Rebuild the Giambelli dictionary and the two relations from the
    classical structure constants plus the solved quantum coefficients,
    mirroring the degree-by-degree deduction."""
    ring = generator_ring()
    s1, s2, q = ring.gen("s1"), ring.gen("s2"), ring.gen("q")
    u = unknowns
    g: dict[str, MultiPolynomial] = {
        "s0": ring.one(), "s1": s1, "s2": s2, "s2p": s1 * s1 - s2}

    s2_sq_elem, s4_s2_elem = missing_products

    def elem_to_poly(elem: SchubertElement, gdict, degree) -> MultiPolynomial:
        total = ring.zero()
        for label, poly in elem.coeffs.items():
            for e, c in poly.coeffs.items():
                total = total + c * (q ** e) * gdict[label]
        if not total.is_zero() and total.degree() != degree:
            raise InconsistentSystem("degree bookkeeping failure")
        return total

    # degree three: two hyperplane rows, no quantum corrections
    row_s2 = _classical_row(table, "s2", "s1")
    row_s2p = _classical_row(table, "s2p", "s1")
    g["s3"], g["s3p"] = _solve_polys(
        [[row_s2.get("s3", 0), row_s2.get("s3p", 0)],
         [row_s2p.get("s3", 0), row_s2p.get("s3p", 0)]],
        [s1 * s2, s1 ** 3 - s1 * s2], ring, 3)

    # degree four: rows of the two degree-three classes plus the square
    # of the degree-two generator
    rows, rhs = [], []
    for label, quantum in (("s3", u.a3), ("s3p", u.a3p)):
        r = _classical_row(table, label, "s1")
        rows.append([r.get("s4", 0), r.get("s4p", 0), r.get("s4pp", 0)])
        rhs.append(g[label] * s1 - quantum * q)
    q_part = s2_sq_elem.coeff("s0").coeff(1)
    cl = {l: p.coeff(0) for l, p in s2_sq_elem.coeffs.items()}
    rows.append([cl.get("s4", 0), cl.get("s4p", 0), cl.get("s4pp", 0)])
    rhs.append(s2 * s2 - q_part * q)
    g["s4"], g["s4p"], g["s4pp"] = _solve_polys(rows, rhs, ring, 4)

    # degree five: three rows for two classes; the excess equation is the
    # first relation
    lhs = {label: g[label] * s1 - quantum * q * s1 for label, quantum in
           (("s4", u.a4), ("s4p", u.a4p), ("s4pp", u.a4pp))}
    r_s4 = _classical_row(table, "s4", "s1")
    r_s4pp = _classical_row(table, "s4pp", "s1")
    g["s5"], g["s5p"] = _solve_polys(
        [[r_s4.get("s5", 0), r_s4.get("s5p", 0)],
         [r_s4pp.get("s5", 0), r_s4pp.get("s5p", 0)]],
        [lhs["s4"], lhs["s4pp"]], ring, 5)
    r_s4p = _classical_row(table, "s4p", "s1")
    residual5 = (lhs["s4p"] - r_s4p.get("s5", 0) * g["s5"]
                 - r_s4p.get("s5p", 0) * g["s5p"])
    if residual5.is_zero():
        raise InconsistentSystem("expected a degree-five relation")
    lead5 = residual5.coeff((5, 0, 0))
    if lead5 == 0:
        raise InconsistentSystem("degree-five relation has no leading term")
    r5 = residual5.scale(1 / lead5)

    # degree six: two hyperplane rows determine the classes, then the
    # derived degree-six product yields the second relation
    lhs6 = {}
    for label, (qa, qb) in (("s5", (u.a5, u.b5)), ("s5p", (u.a5p, u.b5p))):
        lhs6[label] = g[label] * s1 - q * (qa * g["s2"] + qb * g["s2p"])
    r_s5 = _classical_row(table, "s5", "s1")
    r_s5p = _classical_row(table, "s5p", "s1")
    g["s6"], g["s6p"] = _solve_polys(
        [[r_s5.get("s6", 0), r_s5.get("s6p", 0)],
         [r_s5p.get("s6", 0), r_s5p.get("s6p", 0)]],
        [lhs6["s5"], lhs6["s5p"]], ring, 6)
    residual6 = s2 * g["s4"] - elem_to_poly(s4_s2_elem, g, 6)
    if residual6.is_zero():
        raise InconsistentSystem("expected a degree-six relation")
    # remove the multiple of the degree-five relation, then normalize on
    # the pure second-generator monomial
    residual6 = residual6 - residual6.coeff((6, 0, 0)) * (s1 * r5)
    lead6 = residual6.coeff((0, 3, 0))
    if lead6 == 0:
        raise InconsistentSystem("degree-six relation has no cubic term")
    r6 = residual6.scale(16 / lead6)

    # degree seven
    r_s6 = _classical_row(table, "s6", "s1")
    g["s7"] = (g["s6"] * s1 - q * (u.a5 * g["s3"] + u.a5p * g["s3p"])) \
        .scale(1 / r_s6.get("s7", rat(1)))

    # degree eight, and the last unknown from the top-row consistency:
    # the row of the degree-seven class gives the top class up to a q^2
    # shift; feeding that into the next row pins the shift down
    g8_shifted = g["s7"] * s1 - q * (u.a4 * g["s4"] + u.a4p * g["s4p"]
                                     + u.a4pp * g["s4pp"])
    quotient = GradedQuotient(ring, [r5, r6], max_degree=9)
    probe = quotient.normal_form(
        g8_shifted * s1 - q * (u.a3 * g["s5"] + u.a3p * g["s5p"]))
    reference = quotient.normal_form(2 * q ** 2 * s1)
    a7 = rat(0)
    if not probe.is_zero():
        mono = next(iter(reference.terms), None)
        if mono is not None:
            a7 = probe.coeff(mono) / reference.coeff(mono)
        if mono is None or probe != reference.scale(a7):
            raise InconsistentSystem(
                "top-row consistency equation has no rational solution")
    g["s8"] = g8_shifted - a7 * q ** 2

    return DerivedPresentation([r5, r6], g, a7)


@dataclass
class LoopReport:
    diffs: list[tuple[str, str, str, str]]  # (a, b, derived, shipped)

    @property
    def ok(self) -> bool:
        return not self.diffs


def close_loop(table: MultiplicationTable,
               derived: DerivedPresentation) -> LoopReport:
    """Recompute all 120 unordered products through the derived
    presentation and diff against the shipped table."""
    quotient = build_graded_basis(relations=derived.relations,
                                  check_dimensions=False)
    diffs = []
    for a, b, got in mismatched_products(table, quotient, derived.giambelli):
        want = table.basis_product(a, b)
        if isinstance(got, (InconsistentSystem, UnderdeterminedSystem)):
            diffs.append((a, b, f"<{got}>", str(want)))
        elif isinstance(got, Exception):
            raise got
        else:
            diffs.append((a, b, str(got), str(want)))
    return LoopReport(diffs)


def run_pipeline(table: MultiplicationTable,
                 scenario_values: dict[str, Fraction] | None = None) -> dict:
    """Full derivation: scenarios -> unknowns -> products -> presentation
    -> closed loop.  Returns a JSON-ready report."""
    if scenario_values is None:
        from .intersection import run_all_scenarios
        scenario_values = {sid: res.value
                           for sid, res in run_all_scenarios().items()}
    unknowns = solve_chevalley(scenario_values)
    missing = derive_missing_products(table, scenario_values)
    derived = derive_presentation(table, unknowns, missing)
    loop = close_loop(table, derived)
    return {
        "scenario_values": {k: str(v) for k, v in sorted(scenario_values.items())},
        "unknowns": {**{name: str(unknowns[name]) for name in UNKNOWN_NAMES},
                     "a7": str(derived.a7)},
        "relations": [str(r) for r in derived.relations],
        "giambelli": {l: str(derived.giambelli[l]) for l in LABELS},
        "diff_count": len(loop.diffs),
        "diffs": [list(d) for d in loop.diffs[:10]],
        "ok": loop.ok,
    }
