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

from fractions import Fraction

from .exactmath import (InconsistentSystem, MultiPolynomial,
                        UnderdeterminedSystem, rat, solve_linear)
from .presentation import (GradedQuotient, generator_ring,
                           mismatched_products, products_key)
from .schubert import (DEGREES, DUALS, LABEL_INDEX, LABELS,
                       MultiplicationTable, SchubertElement)

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


def _expand(side: str) -> dict[str, int]:
    if side in DEGREES:
        return {side: 1}
    return RESTRICTIONS[side]


def solve_chevalley(scenario_values: dict[str, Fraction]
                    ) -> dict[str, Fraction]:
    """Invert the restriction linear system for the nine degree-one
    unknowns, keyed by UNKNOWN_NAMES; the tenth (the q^2 coefficient of
    the top row) is left for the presentation stage.

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
    return dict(zip(UNKNOWN_NAMES, sol))


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
    # a zero count drops out of the element
    s2_sq = {**table.basis_product("s2", "s2").drop_quantum().terms(),
             (LABEL_INDEX["s0"], 1): i_228}
    s4_s2 = {**table.basis_product("s4", "s2").drop_quantum().terms(),
             (LABEL_INDEX["s2"], 1): i_246, (LABEL_INDEX["s2p"], 1): i_246p}
    return SchubertElement.from_terms(s2_sq), SchubertElement.from_terms(s4_s2)


class DerivedPresentation:
    def __init__(self, quotient: GradedQuotient,
                 giambelli: dict[str, MultiPolynomial], a7: Fraction):
        # quotient is by the derived relations R5, R6
        self.quotient, self.giambelli, self.a7 = quotient, giambelli, a7


def derive_presentation(table: MultiplicationTable,
                        unknowns: dict[str, Fraction],
                        missing_products: tuple[SchubertElement, SchubertElement]
                        ) -> DerivedPresentation:
    """Rebuild the Giambelli dictionary and the two relations from the
    classical structure constants plus the solved quantum coefficients,
    mirroring the degree-by-degree deduction."""
    ring = generator_ring()
    s1, s2, q = ring.gen("s1"), ring.gen("s2"), ring.gen("q")
    g: dict[str, MultiPolynomial] = {
        "s0": ring.one(), "s1": s1, "s2": s2, "s2p": s1 * s1 - s2}
    s1_row = table.tensor[LABEL_INDEX["s1"]]
    s2_sq, s4_s2 = (elem.terms() for elem in missing_products)

    def row(source: str, targets) -> list:
        """The q^0 coefficient of each target in s1 * source."""
        terms = s1_row[LABEL_INDEX[source]]
        return [terms.get((LABEL_INDEX[t], 0), 0) for t in targets]

    def lowered(label: str) -> MultiPolynomial:
        """s1 * G(label) less its q-linear part, taken from ANSATZ."""
        poly = g[label] * s1
        for target, name in ANSATZ.get(label, {}).items():
            poly = poly - q * unknowns[name] * g[target]
        return poly

    def solve(sources, targets, *extra) -> None:
        """G of the targets from the hyperplane row of each source, and
        any extra (row, right-hand side) equations, monomial by monomial."""
        eqs = [(row(s, targets), lowered(s)) for s in sources] + list(extra)
        a = [[rat(c) for c in r] for r, _ in eqs]
        sols = [{} for _ in targets]
        for mono in ring.monomials(DEGREES[targets[0]]):
            x = solve_linear(a, [rhs.coeff(mono) for _, rhs in eqs])
            for sol, c in zip(sols, x):
                if c:
                    sol[mono] = c
        g.update((t, MultiPolynomial(ring, sol))
                 for t, sol in zip(targets, sols))

    def terms_to_poly(terms, degree: int) -> MultiPolynomial:
        total = ring.zero()
        for (k, e), c in terms.items():
            if LABELS[k] not in g:
                raise InconsistentSystem("degree bookkeeping failure")
            total = total + c * (q ** e) * g[LABELS[k]]
        if any(ring.monomial_degree(m) != degree for m in total.terms):
            raise InconsistentSystem("degree bookkeeping failure")
        return total

    # degree three: two hyperplane rows, no quantum corrections
    solve(("s2", "s2p"), ("s3", "s3p"))

    # degree four: rows of the two degree-three classes plus the square
    # of the degree-two generator
    deg4 = ("s4", "s4p", "s4pp")
    solve(("s3", "s3p"), deg4,
          ([s2_sq.get((LABEL_INDEX[t], 0), 0) for t in deg4],
           s2 * s2 - s2_sq.get((LABEL_INDEX["s0"], 1), 0) * q))

    # degree five: three rows for two classes; the excess equation is the
    # first relation
    solve(("s4", "s4pp"), ("s5", "s5p"))
    c5, c5p = row("s4p", ("s5", "s5p"))
    residual5 = lowered("s4p") - c5 * g["s5"] - c5p * g["s5p"]
    if residual5.is_zero():
        raise InconsistentSystem("expected a degree-five relation")
    lead5 = residual5.coeff((5, 0, 0))
    if lead5 == 0:
        raise InconsistentSystem("degree-five relation has no leading term")
    r5 = residual5.scale(1 / lead5)

    # degree six: two hyperplane rows determine the classes, then the
    # derived degree-six product yields the second relation
    solve(("s5", "s5p"), ("s6", "s6p"))
    residual6 = s2 * g["s4"] - terms_to_poly(s4_s2, 6)
    if residual6.is_zero():
        raise InconsistentSystem("expected a degree-six relation")
    # remove the multiple of the degree-five relation, then normalize on
    # the pure second-generator monomial
    residual6 = residual6 - residual6.coeff((6, 0, 0)) * (s1 * r5)
    lead6 = residual6.coeff((0, 3, 0))
    if lead6 == 0:
        raise InconsistentSystem("degree-six relation has no cubic term")
    r6 = residual6.scale(16 / lead6)

    # degree seven; with no s7 term in the row, s7 is taken as is
    (c7,) = row("s6", ("s7",))
    g["s7"] = lowered("s6").scale(1 / rat(c7 or 1))

    # degree eight, and the last unknown from the top-row consistency:
    # the row of the degree-seven class gives the top class up to a q^2
    # shift; feeding that into the next row pins the shift down
    g["s8"] = lowered("s7")
    quotient = GradedQuotient(ring, [r5, r6])
    probe = quotient.normal_form(lowered("s8"))
    reference = quotient.normal_form(2 * q ** 2 * s1)
    a7 = rat(0)
    if not probe.is_zero():
        mono = next(iter(reference.terms), None)
        if mono is not None:
            a7 = probe.coeff(mono) / reference.coeff(mono)
        if mono is None or probe != reference.scale(a7):
            raise InconsistentSystem(
                "top-row consistency equation has no rational solution")
    g["s8"] = g["s8"] - a7 * q ** 2

    return DerivedPresentation(quotient, g, a7)


class LoopReport:
    def __init__(self, diffs: list[tuple[str, str, str, str]]):
        self.diffs = diffs  # (a, b, derived, shipped)

    @property
    def ok(self) -> bool:
        return not self.diffs


def close_loop(table: MultiplicationTable, derived: DerivedPresentation,
               products: tuple | None = None) -> LoopReport:
    """Recompute all 120 unordered products through the derived
    presentation and diff against the shipped table.  products, if given,
    is (products_key, mismatched_products list) of another quotient and
    dictionary on this table; the list is reused when its key is the
    derived presentation's."""
    if products and products[0] == products_key(derived.quotient,
                                                derived.giambelli):
        found = products[1]
    else:
        found = mismatched_products(table, derived.quotient, derived.giambelli)
    diffs = []
    for a, b, got in found:
        want = table.basis_product(a, b)
        if isinstance(got, (InconsistentSystem, UnderdeterminedSystem)):
            diffs.append((a, b, f"<{got}>", str(want)))
        elif isinstance(got, Exception):
            raise got
        else:
            diffs.append((a, b, str(got), str(want)))
    return LoopReport(diffs)


def run_pipeline(table: MultiplicationTable,
                 scenario_values: dict[str, Fraction] | None = None,
                 products: tuple | None = None) -> dict:
    """Full derivation: scenarios -> unknowns -> products -> presentation
    -> closed loop, which may reuse products as close_loop says.  Returns a
    JSON-ready report."""
    if scenario_values is None:
        from .intersection import run_all_scenarios
        scenario_values = {sid: res.value
                           for sid, res in run_all_scenarios().items()}
    unknowns = solve_chevalley(scenario_values)
    missing = derive_missing_products(table, scenario_values)
    derived = derive_presentation(table, unknowns, missing)
    loop = close_loop(table, derived, products)
    return {
        "scenario_values": {k: str(v) for k, v in sorted(scenario_values.items())},
        "unknowns": {**{name: str(unknowns[name]) for name in UNKNOWN_NAMES},
                     "a7": str(derived.a7)},
        "relations": [str(r) for r in derived.quotient.relations],
        "giambelli": {l: str(derived.giambelli[l]) for l in LABELS},
        "diff_count": len(loop.diffs),
        "diffs": [list(d) for d in loop.diffs[:10]],
        "ok": loop.ok,
    }
