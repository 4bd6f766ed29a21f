"""Chern-class intersection calculator for the degree-one curve counts.

Each count lives on a small parameter space (products of projective
spaces, projective bundles over them, or a Grassmann bundle), encoded as
a presented graded ring with an integration normalization.  Bundles are
carried formally as rank plus total Chern class, truncated at the
space's top degree; a difference divides one total Chern class by the
other, degree by degree.
"""
from __future__ import annotations

from fractions import Fraction

from .exactmath import GradedRing, MultiPolynomial, rat
from .presentation import GradedQuotient


class UnsupportedRank(Exception):
    """exterior_square takes rank 3 only, the one rank the counts need,
    and twist_by_line no negative rank."""


class UnknownScenario(KeyError):
    pass


class SpaceModel:
    """A compact parameter space as a presented cohomology ring.

    Relations encode the bundle tower (h^{n+1} = 0 on projective space,
    vanishing quotient Chern components on projective and Grassmann
    bundles).  Integration reads the coefficient of the normalization
    monomial, whose integral is declared to be 1.
    """

    def __init__(self, ring: GradedRing, relations, top_degree: int,
                 normalization: tuple[int, ...]):
        self.ring = ring
        self.quotient = GradedQuotient(self.ring, relations,
                                       max_degree=top_degree)
        self.top_degree = top_degree
        top = self.quotient.basis(top_degree)
        if len(top) != 1:
            raise ValueError(f"top-degree slice has dimension {len(top)}, "
                             f"expected 1")
        norm_nf = self.quotient.normal_form(self.ring.monomial(normalization))
        (self._top_monomial,) = top
        self._norm_scale = norm_nf.coeff(self._top_monomial)
        if self._norm_scale == 0:
            raise ValueError("normalization monomial vanishes in the quotient")

    def integrate(self, cls: MultiPolynomial) -> Fraction:
        """Coefficient of the normalization monomial; classes below the
        top degree integrate to 0."""
        part = cls.component(self.top_degree)
        if part.is_zero():
            return rat(0)
        nf = self.quotient.normal_form(part)
        return nf.coeff(self._top_monomial) / self._norm_scale


class FormalBundle:
    """A virtual bundle: rank plus truncated total Chern class."""

    def __init__(self, space: SpaceModel, rank: int, chern: MultiPolynomial):
        # chern has unit constant term; classes above space.top_degree vanish
        self.space, self.rank = space, rank
        self.chern = chern.truncate(space.top_degree)

    @classmethod
    def trivial(cls, space: SpaceModel, rank: int) -> "FormalBundle":
        return cls(space, rank, space.ring.one())

    def chern_class(self, i: int) -> MultiPolynomial:
        return self.chern.component(i)

    def minus(self, other: "FormalBundle") -> "FormalBundle":
        chern = quotient_chern(self.chern, other.chern, self.space.top_degree)
        return FormalBundle(self.space, self.rank - other.rank, chern)

    def twist_by_line(self, ell: MultiPolynomial) -> "FormalBundle":
        """Tensor with a line bundle of first Chern class ell: every formal
        root shifts by ell, so c_new = sum_j c_j (1 + ell)^{rank-j}."""
        if self.rank < 0:
            raise UnsupportedRank("cannot twist a virtual bundle of "
                                  "negative rank")
        one_plus = self.space.ring.one() + ell
        total = self.space.ring.zero()
        for j in range(self.rank + 1):
            cj = self.chern_class(j)
            if not cj.is_zero():
                total = total + cj * one_plus ** (self.rank - j)
        return FormalBundle(self.space, self.rank, total)

    def exterior_square(self) -> "FormalBundle":
        """Second exterior power of a rank-3 bundle, the only rank the
        counts take: roots x, y, z give roots x+y, x+z, y+z, i.e.
        c = 1 + 2c1 + (c1^2 + c2) + (c1 c2 - c3)."""
        if self.rank != 3:
            raise UnsupportedRank(f"exterior square not implemented for "
                                  f"rank {self.rank}")
        c1, c2, c3 = (self.chern_class(i) for i in (1, 2, 3))
        total = (self.space.ring.one() + 2 * c1 + (c1 * c1 + c2)
                 + (c1 * c2 - c3))
        return FormalBundle(self.space, 3, total)


def quotient_chern(numerator: MultiPolynomial, denominator: MultiPolynomial,
                   max_degree: int) -> MultiPolynomial:
    """Total Chern class of a quotient bundle E/F from c(E) and c(F),
    truncated at the given degree.  c(F) has constant term 1, so degree by
    degree q_d = c_d(E) - sum_{k>=1} c_k(F) q_{d-k}."""
    f = [denominator.component(k) for k in range(max_degree + 1)]
    parts: list[MultiPolynomial] = []
    for d in range(max_degree + 1):
        qd = numerator.component(d)
        for k in range(1, d + 1):
            if not f[k].is_zero():
                qd = qd - f[k] * parts[d - k]
        parts.append(qd)
    return sum(parts[1:], parts[0])


def projective_space(n: int) -> SpaceModel:
    ring = GradedRing(("h",), (1,))
    return SpaceModel(ring, [ring.gen("h") ** (n + 1)], n, (n,))


def product_of_lines(names) -> SpaceModel:
    ring = GradedRing(names, (1,) * len(names))
    rels = [ring.gen(n) ** 2 for n in names]
    return SpaceModel(ring, rels, len(names), (1,) * len(names))


class ScenarioResult:
    def __init__(self, scenario_id: str, main: Fraction, correction: Fraction):
        self.scenario_id, self.main, self.correction = \
            scenario_id, main, correction

    @property
    def value(self) -> Fraction:
        return self.main - self.correction


# ---------------------------------------------------------------------------
# the twelve degree-one counts


def _wedge_count(sp: SpaceModel, c_e: MultiPolynomial,
                 twist: MultiPolynomial | None = None
                 ) -> tuple[Fraction, Fraction]:
    """The integral of the top Chern class of the exterior square of a
    rank-3 bundle E with c(E) = c_e, tensored with the line bundle of first
    Chern class twist when one is given; there is no correction."""
    w = FormalBundle(sp, 3, c_e).exterior_square()
    if twist is not None:
        w = w.twist_by_line(twist)
    return sp.integrate(w.chern_class(sp.top_degree)), rat(0)


def _scenario_on_projective_space(n: int) -> tuple[Fraction, Fraction]:
    # the base A_3 moves in a P^n and c(A_3^*) is the quotient series
    # 1 + h + ... + h^n; n = 1, 2, 3 give 4.1.1 (lines through a general
    # point meeting a tau_3-type cycle), 4.1.5 and 4.1.2
    sp = projective_space(n)
    h = sp.ring.gen("h")
    return _wedge_count(sp, sum((h ** i for i in range(1, n + 1)),
                                sp.ring.one()))


def _scenario_4_1_3() -> tuple[Fraction, Fraction]:
    # hyperplane-section count: difference of two first Chern classes on P^1
    sp = projective_space(1)
    one, h = sp.ring.one(), sp.ring.gen("h")
    a3 = FormalBundle(sp, 3, one + h)
    quot = FormalBundle.trivial(sp, 4).minus(FormalBundle(sp, 1, one - h))
    cls = a3.exterior_square().chern_class(1) - quot.chern_class(1)
    return sp.integrate(cls), rat(0)


def _scenario_4_1_4() -> tuple[Fraction, Fraction]:
    sp = product_of_lines(("h", "hp"))
    one, h, hp = sp.ring.one(), sp.ring.gen("h"), sp.ring.gen("hp")
    return _wedge_count(sp, (one + h) * (one + hp))


def _scenario_4_1_6() -> tuple[Fraction, Fraction]:
    # P^1 x P^2; U_3^* has roots 0, a, b with a+b = h2, ab = h2^2;
    # the count is c_3 of the exterior square twisted by the line class h1
    ring = GradedRing(("h1", "h2"), (1, 1))
    h1, h2 = ring.gen("h1"), ring.gen("h2")
    sp = SpaceModel(ring, [h1 ** 2, h2 ** 3], 3, (1, 2))
    return _wedge_count(sp, ring.one() + h2 + h2**2, h1)


def _scenario_4_1_7() -> tuple[Fraction, Fraction]:
    sp = product_of_lines(("h1", "h2", "h3"))
    one = sp.ring.one()
    h1, h2, h3 = (sp.ring.gen(n) for n in sp.ring.names)
    return _wedge_count(sp, (one + h1) * (one + h2), h3)


def _scenario_4_1_8() -> tuple[Fraction, Fraction]:
    # G(2, E) over P^1 with E of rank four, c(E) = 1 + h; a1, a2 are the
    # Chern classes of the dual rank-two tautological bundle, and the
    # rank-two quotient kills the degree-3 and degree-4 components of
    # c(E)/c(S)
    ring = GradedRing(("h", "a1", "a2"), (1, 1, 2))
    h, a1, a2 = (ring.gen(n) for n in ring.names)
    one = ring.one()
    c_s = one - a1 + a2          # tautological subbundle
    c_e = one + h
    q_total = quotient_chern(c_e, c_s, 5)
    rels = [h ** 2, q_total.component(3), q_total.component(4)]
    sp = SpaceModel(ring, rels, 5, (1, 0, 2))
    d3 = FormalBundle(sp, 3, (one + h) * (one + a1 + a2))
    b1 = d3.exterior_square()
    v3_over_d1 = FormalBundle.trivial(sp, 3).minus(
        FormalBundle(sp, 1, one - h))
    diff = b1.minus(v3_over_d1)
    main = sp.integrate(d3.chern_class(1) * b1.chern_class(2)
                        * diff.chern_class(2))

    # degenerate locus: D_3 containing the distinguished line, a P(E') of
    # rank-three E' with c(E') = 1 + h over the same P^1
    cring = GradedRing(("h", "m"), (1, 1))
    one, h_, m = cring.one(), cring.gen("h"), cring.gen("m")
    corr_sp = SpaceModel(cring, [h_ ** 2, m ** 3 + h_ * m ** 2], 3, (1, 2))
    d3c = FormalBundle(corr_sp, 3, (one + h_) * (one + m))
    v3_over_d1c = FormalBundle.trivial(corr_sp, 3).minus(
        FormalBundle(corr_sp, 1, one - h_))
    diffc = d3c.exterior_square().minus(v3_over_d1c)
    correction = corr_sp.integrate(d3c.chern_class(1) * diffc.chern_class(2))
    return main, correction


def _scenario_4_1_9() -> tuple[Fraction, Fraction]:
    # P(V_6/(D_1 + D'_1)) over P^1 x P^2; relation is the degree-4
    # component of the rank-four quotient series
    ring = GradedRing(("h", "l", "m"), (1, 1, 1))
    h, l, m = (ring.gen(n) for n in ring.names)
    one = ring.one()
    c_e = quotient_chern(one, (one - h) * (one - l), 6)
    proj_rel = sum(((c_e.component(i) * m ** (4 - i)) for i in range(1, 5)),
                   m ** 4)
    sp = SpaceModel(ring, [h ** 2, l ** 3, proj_rel], 6, (1, 2, 3))
    d3 = FormalBundle(sp, 3, (one + h) * (one + l) * (one + m))
    w = d3.exterior_square()
    v3_over_d1p = FormalBundle.trivial(sp, 3).minus(
        FormalBundle(sp, 1, one - l))
    diff = w.minus(v3_over_d1p)
    main = sp.integrate(d3.chern_class(1) * w.chern_class(3)
                        * diff.chern_class(2))
    return main, rat(0)


def _scenario_4_2_3() -> tuple[Fraction, Fraction]:
    # P^1 x G(2,5): t1, t11 are the Schubert classes of the rank-two
    # dual tautological bundle; the rank-three quotient kills the
    # degree-4 and degree-5 components of 1/c(S)
    ring = GradedRing(("h", "t1", "t11"), (1, 1, 2))
    h, t1, t11 = (ring.gen(n) for n in ring.names)
    q_total = quotient_chern(ring.one(), ring.one() - t1 + t11, 7)
    rels = [h ** 2, q_total.component(4), q_total.component(5)]
    sp = SpaceModel(ring, rels, 7, (1, 0, 3))
    d3 = FormalBundle(sp, 3, ring.one() + t1 + t11)
    w = d3.exterior_square()
    tw = w.twist_by_line(h)
    main = sp.integrate(t1 * w.chern_class(3) * tw.chern_class(3))

    # remove the locus where the second and third marked points coincide:
    # P(A_6/D_2) over a P^1, same shape as the 4.1.8 correction one rank up
    cring = GradedRing(("l", "m"), (1, 1))
    one, l, m = cring.one(), cring.gen("l"), cring.gen("m")
    corr_sp = SpaceModel(cring, [l ** 2, m ** 4 + l * m ** 3], 4, (1, 3))
    d3c = FormalBundle(corr_sp, 3, (one + l) * (one + m))
    wc = d3c.exterior_square()
    correction = corr_sp.integrate(d3c.chern_class(1) * wc.chern_class(3))
    return main, correction


_SCENARIOS = {
    "4.1.1": lambda: _scenario_on_projective_space(1),
    "4.1.2": lambda: _scenario_on_projective_space(3),
    "4.1.3": _scenario_4_1_3,
    "4.1.4": _scenario_4_1_4,
    "4.1.5": lambda: _scenario_on_projective_space(2),
    "4.1.6": _scenario_4_1_6,
    "4.1.7": _scenario_4_1_7,
    "4.1.8": _scenario_4_1_8,
    "4.1.9": _scenario_4_1_9,
    # the axis D_3 of 4.2.1 is a hyperplane in a fixed four-space moving
    # in a P^3, and that of 4.2.2 moves in a P^2: the two counts reduce
    # to the integrals of 4.1.2 and 4.1.5
    "4.2.1": lambda: _scenario_on_projective_space(3),
    "4.2.2": lambda: _scenario_on_projective_space(2),
    "4.2.3": _scenario_4_2_3,
}

SCENARIO_IDS = tuple(sorted(_SCENARIOS))

EXPECTED = {
    "4.1.1": (2, 0), "4.1.2": (0, 0), "4.1.3": (1, 0), "4.1.4": (3, 0),
    "4.1.5": (2, 0), "4.1.6": (2, 0), "4.1.7": (3, 0), "4.1.8": (7, 1),
    "4.1.9": (4, 0), "4.2.1": (0, 0), "4.2.2": (2, 0), "4.2.3": (3, 1),
}


def run_scenario(scenario_id: str) -> ScenarioResult:
    if scenario_id not in _SCENARIOS:
        raise UnknownScenario(scenario_id)
    main, correction = _SCENARIOS[scenario_id]()
    return ScenarioResult(scenario_id, main, correction)


def run_all_scenarios() -> dict[str, ScenarioResult]:
    return {sid: run_scenario(sid) for sid in SCENARIO_IDS}


def verify_scenarios(results: dict[str, ScenarioResult]):
    """Check each scenario's result, as run_all_scenarios returns them,
    against its expected counts."""
    from .schubert import VerificationReport
    report = VerificationReport()
    for sid in SCENARIO_IDS:
        res = results[sid]
        want_main, want_corr = EXPECTED[sid]
        ok = res.main == want_main and res.correction == want_corr
        report.add(f"scenario_{sid}", ok,
                   f"main={res.main} correction={res.correction} "
                   f"value={res.value}"
                   + ("" if ok else f" expected main={want_main} "
                      f"correction={want_corr}"))
    return report
