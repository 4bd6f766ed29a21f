"""Generator-and-relations model of the ring and its cross-checks
against the Schubert-basis table."""
import json
import os
import random
from fractions import Fraction

import pytest

from cgquantum import presentation
from cgquantum.exactmath import (GradedRing, InconsistentSystem,
                                 UnderdeterminedSystem, clear_denominators,
                                 rat, rref_int, solve_linear)
from cgquantum.presentation import (DegreeOutOfRange, DimensionMismatch,
                                    GiambelliFormatError, GradedQuotient,
                                    build_graded_basis,
                                    cross_check_presentation,
                                    evaluate_in_schubert, expand_in_schubert,
                                    expected_dimension, generator_ring,
                                    load_giambelli, mismatched_products,
                                    standard_relations)
from cgquantum.schubert import (DEGREES, LABEL_INDEX, LABELS,
                                MultiplicationTable, SchubertElement,
                                default_data_dir, load_default_table,
                                quantum_product)


@pytest.fixture(scope="module")
def table():
    return load_default_table()


@pytest.fixture(scope="module")
def quotient():
    return build_graded_basis()


@pytest.fixture(scope="module")
def giambelli(quotient):
    return load_giambelli(ring=quotient.ring)


def test_graded_dimensions(quotient):
    assert quotient.dimension(0) == 1
    assert quotient.dimension(4) == 4
    assert quotient.dimension(5) == 3
    for d in range(17):
        assert quotient.dimension(d) == expected_dimension(d)


def test_expected_dimension_sums_the_betti_numbers():
    # the Betti numbers of CG, typed here rather than read from DEGREES: the
    # degree-d slice of the free Q[q]-module has dim sum_c b_{d - 4c}
    betti = (1, 1, 2, 2, 3, 2, 2, 1, 1)
    for d in range(17):
        want = sum(betti[d - 4 * c] for c in range(d // 4 + 1)
                   if d - 4 * c < len(betti))
        assert expected_dimension(d) == want, d


def test_relations_have_zero_normal_form(quotient):
    for rel in standard_relations(quotient.ring):
        assert quotient.normal_form(rel).is_zero()


def test_generator_below_relations_untouched(quotient):
    s1 = quotient.ring.gen("s1")
    assert quotient.normal_form(s1) == s1


def test_normal_form_kills_random_ideal_multiples(quotient):
    rng = random.Random(23)
    ring = quotient.ring
    r5 = standard_relations(ring)[0]
    for _ in range(50):
        d = rng.randint(0, 11)
        monos = ring.monomials(d)
        x = ring.zero()
        for m in monos:
            x = x + ring.monomial(m, Fraction(rng.randint(-4, 4)))
        assert quotient.normal_form(x * r5).is_zero()


def test_normal_form_is_idempotent_and_linear(quotient):
    ring = quotient.ring
    s1, s2 = ring.gen("s1"), ring.gen("s2")
    p = s1 ** 6 + s2 ** 3
    nf = quotient.normal_form(p)
    assert quotient.normal_form(nf) == nf
    q2 = s1 ** 2 * s2 ** 2
    assert quotient.normal_form(p + q2) == nf + quotient.normal_form(q2)


def test_degree_beyond_built_range_rejected(quotient):
    big = quotient.ring.gen("s1") ** 17
    with pytest.raises(DegreeOutOfRange):
        quotient.normal_form(big)


def test_a_degree_zero_quotient_has_its_one_slice():
    ring = generator_ring()
    quotient = GradedQuotient(ring, standard_relations(ring), 0)
    assert quotient.basis(0) == [(0, 0, 0)]
    with pytest.raises(DegreeOutOfRange, match="degree 1 beyond built "
                                                "maximum 0"):
        quotient.basis(1)


def test_evaluation_of_square(table):
    ring = generator_ring()
    got = evaluate_in_schubert(table, ring.gen("s1") ** 2)
    want = SchubertElement.basis("s2") + SchubertElement.basis("s2p")
    assert got == want


def test_table_satisfies_relations(table):
    ring = generator_ring()
    for rel in standard_relations(ring):
        assert evaluate_in_schubert(table, rel).is_zero()


def test_dictionary_recovers_every_class(table, giambelli):
    for label in LABELS:
        assert evaluate_in_schubert(table, giambelli[label]) == \
            SchubertElement.basis(label)


def test_evaluation_is_a_homomorphism(table):
    rng = random.Random(5)
    ring = generator_ring()

    def random_poly(max_deg):
        p = ring.zero()
        for d in range(max_deg + 1):
            for m in ring.monomials(d):
                if rng.random() < 0.3:
                    p = p + ring.monomial(m, Fraction(rng.randint(-3, 3)))
        return p

    for _ in range(100):
        p, r = random_poly(3), random_poly(3)
        lhs = evaluate_in_schubert(table, p * r)
        rhs = quantum_product(table, evaluate_in_schubert(table, p),
                              evaluate_in_schubert(table, r))
        assert lhs == rhs


def test_full_cross_check(table, quotient, giambelli):
    report = cross_check_presentation(table, quotient, giambelli)
    assert report.ok, [c.detail for c in report.failures()]


def test_sign_flipped_dictionary_entry_detected(table, quotient, giambelli):
    flipped = dict(giambelli)
    entry = flipped["s4p"]
    # negate the q-linear part of the degree-4 entry
    ring = quotient.ring
    qpart = ring.zero()
    for exps, c in entry.terms.items():
        if exps[2] > 0:
            qpart = qpart + ring.monomial(exps, c)
    assert not qpart.is_zero()
    flipped["s4p"] = entry - qpart - qpart
    report = cross_check_presentation(table, quotient, flipped)
    assert not report.ok
    failed = {c.check_id for c in report.failures()}
    assert "giambelli_evaluation" in failed


def test_miscopied_relation_detected(table, monkeypatch):
    # a transcription slip (-28q -> -27q) keeps the graded dimensions,
    # so it must surface in the cross-check instead
    def miscopied(ring):
        r5, r6 = standard_relations(ring)
        return [r5, r6 + ring.monomial((2, 0, 1), rat(1))]

    monkeypatch.setattr(presentation, "standard_relations", miscopied)
    try:
        bad_quotient = build_graded_basis()
    except DimensionMismatch:
        return
    report = cross_check_presentation(
        table, bad_quotient, load_giambelli(ring=bad_quotient.ring))
    assert not report.ok


def products_via_presentation(quotient, giambelli):
    """(a, b, result) for each of the 120 unordered products of dictionary
    entries, in table order: result is expand_in_schubert of the product,
    or the exception it raised, as mismatched_products reports it for
    entries that are zero or homogeneous of their label's degree; a
    missing entry raises KeyError at its first pair."""
    for i, a in enumerate(LABELS):
        for b in LABELS[i:]:
            p = giambelli[a] * giambelli[b]
            try:
                result = expand_in_schubert(quotient, giambelli, p)
            except Exception as exc:
                result = exc
            yield a, b, result


def test_products_via_presentation_match_table(table, quotient, giambelli):
    results = list(products_via_presentation(quotient, giambelli))
    pairs = [(a, b) for i, a in enumerate(LABELS) for b in LABELS[i:]]
    assert [(a, b) for a, b, _ in results] == pairs
    for a, b, got in results:
        assert got == table.basis_product(a, b), (a, b, got)


def _change_of_basis_matrix(quotient, giambelli, degree):
    """Reference change of basis in one degree: for each column (label, c)
    with deg(label) + 4c = degree, the coefficients of
    normal_form(q^c * giambelli[label]) at quotient.basis(degree).
    Returns (columns, matrix), matrix[i][j] of basis monomial i and
    column j.  Each entry is zero or homogeneous of its label's degree, so
    each normal form lies in the degree's basis."""
    cols = [(label, (degree - DEGREES[label]) // 4) for label in LABELS
            if degree >= DEGREES[label]
            and (degree - DEGREES[label]) % 4 == 0]
    index = {m: i for i, m in enumerate(quotient.basis(degree))}
    q = quotient.ring.gen("q")
    matrix = [[0] * len(cols) for _ in index]
    for j, (label, c) in enumerate(cols):
        for m, x in quotient.normal_form(q**c * giambelli[label]).terms.items():
            matrix[index[m]][j] = x
    return cols, matrix


def test_change_of_basis_invertible_up_to_degree_16(expansion_cases):
    for case in ("shipped", "derived"):
        quotient, giambelli = expansion_cases[case]
        for d in range(17):
            cols, matrix = _change_of_basis_matrix(quotient, giambelli, d)
            assert len(matrix) == len(cols) == quotient.dimension(d), (case, d)
            _, pivots = rref_int([clear_denominators(row)[0]
                                  for row in matrix])
            assert len(pivots) == len(cols), (case, d)


def _expansion_by_solve_linear(quotient, giambelli, p):
    """Reference: one solve_linear per right-hand side, reported the way
    the cross-check reports a product."""
    degree = p.degree()
    cols, matrix = _change_of_basis_matrix(quotient, giambelli, degree)
    # solve_linear reads a matrix without rows as having no columns, so
    # an empty slice with Schubert columns is decided here
    if cols and not matrix:
        return "expansion failed: solution not unique"
    index = {m: i for i, m in enumerate(quotient.basis(degree))}
    target = [Fraction(0)] * len(index)
    for exps, c in quotient.normal_form(p).terms.items():
        target[index[exps]] = c
    try:
        sol = solve_linear(matrix, target)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        return f"expansion failed: {exc}"
    return str(SchubertElement.from_terms(
        {(LABEL_INDEX[label], e): c for (label, e), c in zip(cols, sol)}))


@pytest.mark.parametrize("replaced,by", [("s4", "s4p"), ("s2", "s2p"),
                                         ("s6", "s6p")])
def test_singular_change_of_basis_fails_like_solve_linear(
        table, quotient, giambelli, replaced, by):
    # two equal entries of one degree make that degree's change of basis
    # singular: some products have no expansion, some no unique one
    broken = dict(giambelli)
    broken[replaced] = giambelli[by]
    want = {}
    for i, a in enumerate(LABELS):
        for b in LABELS[i:]:
            want[a, b] = _expansion_by_solve_linear(
                quotient, broken, broken[a] * broken[b])
    got = {}
    for a, b, result in products_via_presentation(quotient, broken):
        got[a, b] = (f"expansion failed: {result}"
                     if isinstance(result, Exception) else str(result))
    assert got == want
    failures = set(want.values())
    assert "expansion failed: no solution" in failures
    assert "expansion failed: solution not unique" in failures
    bad = [(a, b, detail) for (a, b), detail in want.items()
           if detail.startswith("expansion failed")
           or detail != str(table.basis_product(a, b))]
    report = cross_check_presentation(table, quotient, broken)
    products = [c for c in report.checks if c.check_id == "products_match"]
    assert products[0].detail == f"{len(bad)} mismatches, first: {bad[:3]}"
    p = broken["s0"] * broken[replaced]
    with pytest.raises(UnderdeterminedSystem, match="solution not unique"):
        expand_in_schubert(quotient, broken, p)


def _write_shipped_giambelli(tmp_path, mutate):
    with open(os.path.join(default_data_dir(), "cg_giambelli.json")) as fh:
        raw = json.load(fh)
    mutate(raw)
    path = tmp_path / "giambelli.json"
    path.write_text(json.dumps(raw))
    return str(path)


GIAMBELLI_SCHEMA_ERRORS = {
    "terms-not-a-list": lambda raw: raw.update(s3={"exponents": [3, 0, 0]}),
    "term-without-exponents": lambda raw: raw["s3"][0].pop("exponents"),
    "term-without-coeff": lambda raw: raw["s3"][0].pop("coeff"),
    "exponents-too-short": lambda raw: raw["s3"][0].update(exponents=[3, 0]),
    "exponent-negative": lambda raw: raw["s3"][0].update(
        exponents=[4, -1, 0]),
    "exponent-not-an-int": lambda raw: raw["s3"][0].update(
        exponents=[3.0, 0, 0]),
    "term-not-an-object": lambda raw: raw["s3"].append(7),
    "coeff-unparseable": lambda raw: raw["s3"][0].update(coeff="1/0"),
}


@pytest.mark.parametrize("mutate", list(GIAMBELLI_SCHEMA_ERRORS.values()),
                         ids=list(GIAMBELLI_SCHEMA_ERRORS))
def test_giambelli_schema_errors_raise_format_error(tmp_path, mutate):
    path = _write_shipped_giambelli(tmp_path, mutate)
    with pytest.raises(GiambelliFormatError):
        load_giambelli(path)


def test_giambelli_repeated_exponents_sum_and_zero_sums_drop(tmp_path,
                                                             giambelli):
    # s3 = 3/4*s1^3 - 5/4*s1*s2; s1^3 is cancelled, so given again it
    # comes after s1*s2, and s1*s2 sums with its repeats
    def mutate(raw):
        raw["s3"] += [{"exponents": [3, 0, 0], "coeff": "-3/4"},
                      {"exponents": [1, 1, 0], "coeff": "1/4"},
                      {"exponents": [1, 1, 0], "coeff": 0},
                      {"exponents": [3, 0, 0], "coeff": 2}]

    got = load_giambelli(_write_shipped_giambelli(tmp_path, mutate))
    assert list(got["s3"].terms.items()) == [((1, 1, 0), -1), ((3, 0, 0), 2)]
    assert [type(c) for c in got["s3"].terms.values()] == [int, int]
    assert all(got[label] == giambelli[label] for label in LABELS
               if label != "s3")


def _outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises;
    an expansion reported the way the cross-check reports a product."""
    try:
        result = fn(*args)
    except Exception as exc:
        result = exc
    if isinstance(result, (InconsistentSystem, UnderdeterminedSystem)):
        return f"expansion failed: {result}"
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return str(result)


def _reference(quotient, giambelli, p):
    # solve_linear has no system for the zero polynomial, which is 0
    if p.is_zero():
        return "0"
    return _expansion_by_solve_linear(quotient, giambelli, p)


@pytest.fixture(scope="module")
def expansion_cases(quotient, giambelli):
    """(quotient, dictionary) pairs whose 120 products are compared with
    the solve_linear reference."""
    from cgquantum.intersection import run_all_scenarios
    from cgquantum.pipeline import (derive_missing_products,
                                    derive_presentation, solve_chevalley)

    table = load_default_table()
    values = {sid: r.value for sid, r in run_all_scenarios().items()}
    derived = derive_presentation(table, solve_chevalley(values),
                                  derive_missing_products(table, values))
    ring = quotient.ring
    s1, s2 = ring.gen("s1"), ring.gen("s2")
    cases = {
        "shipped": (quotient, giambelli),
        "derived": (derived.quotient, derived.giambelli),
        "zero-entry": (quotient, dict(giambelli, s2p=ring.zero())),
        "empty-slices": (GradedQuotient(ring, [s1, s2]), giambelli),
        "degree-10-quotient": (
            GradedQuotient(ring, standard_relations(ring), 10), giambelli),
    }
    for replaced, by in (("s4", "s4p"), ("s2", "s2p"), ("s6", "s6p")):
        cases[f"singular-{replaced}"] = (
            quotient, dict(giambelli, **{replaced: giambelli[by]}))
    # one coefficient far past any other, and one with a new denominator:
    # s1^3 of s3 at 10^400, and s1*q of s5 at 1/3
    cases["huge-coefficient"] = (quotient, dict(giambelli, s3=giambelli[
        "s3"] + ring.monomial((3, 0, 0), 10 ** 400 - Fraction(3, 4))))
    cases["third-coefficient"] = (quotient, dict(giambelli, s5=giambelli[
        "s5"] + ring.monomial((1, 0, 1), Fraction(1, 3) + Fraction(3, 2))))
    # a seeded sample of the +-1 faults on one Giambelli coefficient
    sites = [(label, exps) for label in LABELS
             for exps in giambelli[label].terms]
    rng = random.Random(41)
    for i, (label, exps) in enumerate(rng.sample(sites, 12)):
        d = rng.choice((1, -1))
        cases[f"fault-{i}"] = (
            quotient,
            dict(giambelli, **{label: giambelli[label]
                               + ring.monomial(exps, d)}))
    return cases


CASES = (["shipped", "derived", "zero-entry", "empty-slices",
          "degree-10-quotient", "singular-s4", "singular-s2", "singular-s6",
          "huge-coefficient", "third-coefficient"]
         + [f"fault-{i}" for i in range(12)])


@pytest.mark.parametrize("case", CASES)
def test_products_match_solve_linear_reference(expansion_cases, case):
    quotient, dictionary = expansion_cases[case]
    pairs = [(a, b) for i, a in enumerate(LABELS) for b in LABELS[i:]]
    results = list(products_via_presentation(quotient, dictionary))
    assert [(a, b) for a, b, _ in results] == pairs
    got = {(a, b): _outcome(lambda r=r: r) for a, b, r in results}
    want = {(a, b): _outcome(_reference, quotient, dictionary,
                             dictionary[a] * dictionary[b])
            for a, b in pairs}
    assert got == want


@pytest.fixture(scope="module")
def check_tables():
    """The shipped table; 40 seeded +-1 faults on one of its 297 terms; an
    off-grade term (s1 in s1 * s1); a Fraction coefficient (1/2 on the
    s4 term of s2 * s2); and a huge one (10^400 on the s3 term of
    s1 * s2)."""
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        shipped = json.load(fh)

    def mutant(pick, change):
        raw = json.loads(json.dumps(shipped))
        change(pick(raw))
        return MultiplicationTable.from_dict(raw)

    def record(a, b):
        return lambda raw: next(r for r in raw["products"]
                                if (r["a"], r["b"]) in ((a, b), (b, a)))

    tables = {"shipped": MultiplicationTable.from_dict(shipped)}
    sites = [(i, j) for i, rec in enumerate(shipped["products"])
             for j in range(len(rec["terms"]))]
    assert len(sites) == 297
    rng = random.Random(27)
    for i, j in rng.sample(sites, 40):
        d = rng.choice((1, -1))
        tables[f"term-{i}-{j}{d:+d}"] = mutant(
            lambda raw: raw["products"][i]["terms"][j],
            lambda term: term.update(coeff=term["coeff"] + d))
    tables["off-grade"] = mutant(record("s1", "s1"), lambda rec: rec[
        "terms"].append({"label": "s1", "q": 0, "coeff": 1}))
    tables["fraction"] = mutant(record("s2", "s2"), lambda rec: next(
        t for t in rec["terms"] if t["label"] == "s4").update(coeff="1/2"))
    tables["huge"] = mutant(record("s1", "s2"), lambda rec: next(
        t for t in rec["terms"] if t["label"] == "s3").update(
            coeff=10 ** 400))
    return tables


@pytest.mark.parametrize("case", CASES)
def test_mismatched_products_filter_the_full_expansion(expansion_cases,
                                                       check_tables, case):
    # mismatched_products expands only the products that fail M c = NF(p);
    # the pairs, results and exceptions it yields are those of expanding
    # every product and comparing it with the table entry
    quotient, dictionary = expansion_cases[case]
    expanded = list(products_via_presentation(quotient, dictionary))
    for name, table in check_tables.items():
        want = [(a, b, _outcome(lambda r=r: r)) for a, b, r in expanded
                if isinstance(r, Exception) or r != table.basis_product(a, b)]
        got = [(a, b, _outcome(lambda r=r: r))
               for a, b, r in mismatched_products(table, quotient, dictionary)]
        assert got == want, name


@pytest.mark.parametrize("case", CASES)
def test_packed_compare_fields_are_balanced_digits(expansion_cases,
                                                   check_tables, monkeypatch,
                                                   case):
    # each field of a packed compare's difference, m_den * M c * sl.den *
    # den - m_den * nf, lies below 2^(width - 1), so the compare is the
    # compare of the unpacked vectors
    quotient, dictionary = expansion_cases[case]
    matches = presentation._PackedDegree.matches
    compared = []

    def unpacked(self, terms_a, terms_b, den, want):
        sl, m_den, columns = self.basis
        got = matches(self, terms_a, terms_b, den, want)
        if all(t in columns and type(c) is int for t, c in want.items()):
            diff = [0] * len(sl.basis)
            for t, c in want.items():
                diff = [y + c * x * sl.den * den
                        for y, x in zip(diff, columns[t])]
            for ka, ca in terms_a:
                for kb, cb in terms_b:
                    for j, x in sl.nf[ka + kb]:
                        diff[j] -= ca * cb * x * m_den
            assert max(map(abs, diff), default=0) < 1 << self.width - 1
            assert got == (not any(diff))
            compared.append(got)
        else:
            assert not got
        return got

    monkeypatch.setattr(presentation._PackedDegree, "matches", unpacked)
    for name in ("shipped", "off-grade", "fraction", "huge",
                 *list(check_tables)[1:4]):
        list(mismatched_products(check_tables[name], quotient, dictionary))
    assert compared or case == "empty-slices"


def _random_polynomial(rng, ring, degree):
    p = ring.zero()
    for mono in ring.monomials(degree):
        if rng.random() < 0.5:
            p = p + ring.monomial(mono, Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 6)))
    return p


@pytest.mark.parametrize("case", ["shipped", "derived", "empty-slices",
                                  "singular-s4"])
def test_expand_in_schubert_matches_solve_linear_reference(expansion_cases,
                                                           case):
    quotient, dictionary = expansion_cases[case]
    ring = quotient.ring
    rng = random.Random(59)
    for _ in range(60):
        p = _random_polynomial(rng, ring, rng.randint(0, 17))
        assert _outcome(expand_in_schubert, quotient, dictionary, p) == \
            _outcome(_reference, quotient, dictionary, p), str(p)


def test_empty_slice_expansion_is_not_unique(giambelli):
    # s1 and s2 span the whole of degree 2, which still has the two
    # Schubert columns s2 and s2p
    ring = generator_ring()
    s1, s2 = ring.gen("s1"), ring.gen("s2")
    small = GradedQuotient(ring, [s1, s2])
    assert small.dimension(2) == 0
    with pytest.raises(UnderdeterminedSystem, match="solution not unique"):
        expand_in_schubert(small, giambelli, s2)


def test_expansion_failures_repeat_for_every_product(table, giambelli):
    # nothing is kept for a degree whose map could not be built
    ring = generator_ring()
    small = GradedQuotient(ring, standard_relations(ring), 10)
    for a, b, r in products_via_presentation(small, giambelli):
        degree = DEGREES[a] + DEGREES[b]
        if degree > 10:
            assert isinstance(r, DegreeOutOfRange)
            assert str(r) == f"degree {degree} beyond built maximum 10"
        else:
            assert r == table.basis_product(a, b)
    # a non-homogeneous product fails before its degree is looked at
    broken = dict(giambelli, s8=giambelli["s8"] + small.ring.gen("s1"))
    for a, b, r in products_via_presentation(small, broken):
        if "s8" in (a, b):
            assert isinstance(r, ValueError)
            assert str(r) == "polynomial is not homogeneous"


@pytest.mark.parametrize("s3", [lambda g, s1: g["s3"] + s1,
                                lambda g, s1: g["s2"]],
                         ids=["non-homogeneous", "wrong-degree"])
def test_an_entry_outside_the_contract_raises_the_loaders_error(
        table, quotient, giambelli, s3):
    # the products pass takes each entry to be zero or homogeneous of its
    # label's degree, as load_giambelli and the derivation make it; any
    # other entry fails the whole pass with the loader's message
    s1 = quotient.ring.gen("s1")
    broken = dict(giambelli, s3=s3(giambelli, s1))
    for run in (lambda: list(mismatched_products(table, quotient, broken)),
                lambda: cross_check_presentation(table, quotient, broken),
                lambda: expand_in_schubert(quotient, broken, s1 ** 3)):
        with pytest.raises(GiambelliFormatError) as info:
            run()
        assert str(info.value) == \
            "dictionary entry for s3 is not homogeneous of degree 3"


def test_a_program_fault_in_the_products_pass_propagates(
        table, quotient, giambelli, monkeypatch):
    # the pass yields only the exceptions of a product with no unique
    # expansion; any other exception is a fault of the program, not a
    # failed products_match
    def broken(*args):
        raise TypeError("boom")

    # in the packed compare every product of the shipped dictionary takes
    with monkeypatch.context() as patch:
        patch.setattr(presentation._PackedDegree, "matches", broken)
        with pytest.raises(TypeError, match="^boom$"):
            cross_check_presentation(table, quotient, giambelli)
    # and in the solve that the failing products of a faulty one reach
    ring = quotient.ring
    faulty = dict(giambelli, s4p=giambelli["s4p"] + ring.gen("q"))
    assert list(mismatched_products(table, quotient, faulty))
    monkeypatch.setattr(presentation, "_expansions", broken)
    with pytest.raises(TypeError, match="^boom$"):
        cross_check_presentation(table, quotient, faulty)


GIAMBELLI_CONTENT_ERRORS = {
    "unknown-label": (lambda raw: raw.update(s9=[]),
                      "unknown label 's9' in dictionary"),
    "non-homogeneous-entry": (
        lambda raw: raw["s3"].append({"exponents": [1, 0, 0], "coeff": 1}),
        "dictionary entry for s3 is not homogeneous of degree 3"),
    "wrong-degree-entry": (
        lambda raw: raw.update(s3=[{"exponents": [2, 0, 0], "coeff": 1}]),
        "dictionary entry for s3 is not homogeneous of degree 3"),
    "missing-label": (lambda raw: raw.pop("s8"),
                      "dictionary must cover all 15 labels"),
}


@pytest.mark.parametrize("mutate, message",
                         list(GIAMBELLI_CONTENT_ERRORS.values()),
                         ids=list(GIAMBELLI_CONTENT_ERRORS))
def test_giambelli_content_errors_raise_format_error(tmp_path, mutate,
                                                     message):
    path = _write_shipped_giambelli(tmp_path, mutate)
    with pytest.raises(GiambelliFormatError) as info:
        load_giambelli(path)
    assert str(info.value) == message


def _slices_by_full_build(ring, relations, max_degree):
    """Reference slices: every relation multiple of each degree, reduced by
    rref_int, each row divided by its pivot.
    {degree: (basis, pivots, reducers as Fractions)}"""
    out = {}
    for d in range(max_degree + 1):
        monomials = ring.monomials(d)
        index = {m: i for i, m in enumerate(monomials)}
        rows = []
        for rel in relations:
            for mono in ring.monomials(d - rel.degree()):
                row = [0] * len(monomials)
                for exps, c in (rel * ring.monomial(mono)).terms.items():
                    row[index[exps]] = c
                rows.append(clear_denominators(row)[0])
        reduced, pivots = rref_int(rows)
        basis = [m for i, m in enumerate(monomials) if i not in pivots]
        reducers = [(col, [(j, Fraction(c, row[col]))
                           for j, c in enumerate(row) if c and j != col])
                    for row, col in zip(reduced, pivots)]
        out[d] = basis, pivots, reducers
    return out


def _space_model_quotients(monkeypatch):
    """(ring, relations, max_degree) of every quotient the scenarios build."""
    from cgquantum import intersection
    built = []

    def recording(ring, relations, max_degree):
        built.append((ring, list(relations), max_degree))
        return GradedQuotient(ring, relations, max_degree)

    monkeypatch.setattr(intersection, "GradedQuotient", recording)
    intersection.run_all_scenarios()
    return built


def _relation_sets(monkeypatch):
    from cgquantum.intersection import run_all_scenarios
    from cgquantum.pipeline import (derive_missing_products,
                                    derive_presentation, solve_chevalley)
    table = load_default_table()
    values = {sid: r.value for sid, r in run_all_scenarios().items()}
    derived = derive_presentation(table, solve_chevalley(values),
                                  derive_missing_products(table, values))
    ring = generator_ring()
    r5, r6 = standard_relations(ring)
    s1, q = ring.gen("s1"), ring.gen("q")
    sets = {
        "standard": (ring, [r5, r6], 16),
        "derived": (ring, derived.quotient.relations, 16),
        "duplicate": (ring, [r5, r6, r5, r6], 12),
        "dependent": (ring, [r5, s1 * r5, r6, 2 * r6 - s1 * r5], 12),
        "fractions": (ring, [r5.scale(Fraction(1, 3)),
                             r6 + q * s1 * s1 * Fraction(5, 7)], 12),
        "no-relations": (ring, [], 6),
    }
    # first generator of degree 2 and 3
    rg = GradedRing(("x", "y", "z"), (2, 1, 3))
    x, y, z = (rg.gen(n) for n in ("x", "y", "z"))
    sets["first-degree-2"] = (rg, [x * y - z * Fraction(1, 2), x * x - y ** 4,
                                   z * z + x ** 3], 14)
    rg = GradedRing(("x", "y", "z"), (3, 2, 1))
    x, y, z = (rg.gen(n) for n in ("x", "y", "z"))
    sets["first-degree-3"] = (rg, [x - y * z, y * y - z ** 4 * Fraction(2, 3),
                                   x * x], 14)
    for n, built in enumerate(_space_model_quotients(monkeypatch)):
        sets[f"space-model-{n}"] = built
    return sets


def _slice_rows(quotient, d):
    """(basis, pivots, reducers as Fractions) of a slice, as
    _slices_by_full_build gives them: a pivot monomial less its normal
    form is its reduced row over its pivot entry."""
    monomials = quotient.ring.monomials(d)
    sl = quotient._slice(d)
    free = [i for i, m in enumerate(monomials) if m in sl.basis]
    pivots = [i for i in range(len(monomials)) if i not in free]
    reducers = [(col, [(free[t], Fraction(-x, sl.den))
                       for t, x in sl.nf[quotient._key(monomials[col])]])
                for col in pivots]
    return sl.basis, pivots, reducers


def test_slices_built_from_the_slice_below_match_a_full_build(monkeypatch):
    rows_reduced = []
    rref_int = presentation.rref_int

    def counted(rows):
        rows_reduced.append(len(rows))
        return rref_int(rows)

    sets = _relation_sets(monkeypatch)
    assert len([name for name in sets if name.startswith("space-model")]) \
        >= 12
    monkeypatch.setattr(presentation, "rref_int", counted)
    for name, (ring, relations, max_degree) in sets.items():
        rows_reduced.clear()
        quotient = GradedQuotient(ring, relations, max_degree)
        want = _slices_by_full_build(ring, relations, max_degree)
        for d, (basis, pivots, reducers) in want.items():
            assert _slice_rows(quotient, d) == (basis, pivots, reducers), \
                (name, d)
            sl = quotient._slice(d)
            # a basis monomial is its own normal form
            for t, m in enumerate(basis):
                assert sl.nf[quotient._key(m)] == ((t, sl.den),), (name, d)
            # only the x0-free multiples are reduced: 3 rows at degree 16
            # of the standard relations
            free = sum(1 for rel in relations
                       for m in ring.monomials(d - rel.degree()) if not m[0])
            assert rows_reduced[d] == free, (name, d)


def _fraction_reducer(ring, relations, degree):
    """The monomials of one degree and the rows, each 1 at its pivot, of a
    Gauss-Jordan elimination over Fractions of every relation multiple of
    that degree."""
    monomials = ring.monomials(degree)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for rel in relations:
        for mono in ring.monomials(degree - rel.degree()):
            row = [Fraction(0)] * len(monomials)
            for exps, c in (rel * ring.monomial(mono)).terms.items():
                row[index[exps]] = Fraction(c)
            rows.append(row)
    reduced = []
    for col in range(len(monomials)):
        piv = next((row for row in rows if row[col]), None)
        if piv is None:
            continue
        piv = [x / piv[col] for x in piv]
        rows = [[x - row[col] * y for x, y in zip(row, piv)] for row in rows]
        reduced = [[x - row[col] * y for x, y in zip(row, piv)]
                   for row in reduced] + [piv]
    return monomials, reduced


def test_normal_form_matches_a_dense_fraction_reduction(monkeypatch):
    rng = random.Random(67)
    for name, (ring, relations, max_degree) in \
            _relation_sets(monkeypatch).items():
        quotient = GradedQuotient(ring, relations, max_degree)
        for d in range(max_degree + 1):
            monomials, reduced = _fraction_reducer(ring, relations, d)
            for _ in range(3):
                p = _random_polynomial(rng, ring, d)
                vec = [Fraction(p.coeff(m)) for m in monomials]
                for row in reduced:
                    f = vec[next(i for i, x in enumerate(row) if x)]
                    vec = [x - f * y for x, y in zip(vec, row)]
                want = {m: x for m, x in zip(monomials, vec) if x}
                assert quotient.normal_form(p).terms == want, (name, d, p)


def test_building_a_slice_leaves_the_slice_below_unchanged(monkeypatch):
    # a slice is built from the normal forms of the slice below, which
    # must therefore never be changed in place
    for name, (ring, relations, max_degree) in \
            _relation_sets(monkeypatch).items():
        quotient = GradedQuotient(ring, relations, max_degree)
        step = ring.degrees[0]
        for d in range(max_degree + 1):
            below = quotient._slice(d - step) if d >= step else None
            before = below and (list(below.basis), dict(below.nf),
                                [list(row) for row in below.nf.values()],
                                below.den)
            quotient._slice(d)
            assert before == (below and (
                below.basis, below.nf, [list(row)
                                        for row in below.nf.values()],
                below.den)), (name, d)


@pytest.mark.parametrize("relations, expected", [
    ("r5", expected_dimension),
    ("standard", lambda d: expected_dimension(d) - (d == 12)),
    ("standard", lambda d: 1),
])
def test_dimension_mismatch_is_raised_at_the_first_wrong_degree(
        monkeypatch, relations, expected):
    count = 1 if relations == "r5" else 2
    ring = generator_ring()
    rels = standard_relations(ring)[:count]
    want = _slices_by_full_build(ring, rels, 16)
    first = next(d for d in range(17) if len(want[d][0]) != expected(d))
    monkeypatch.setattr(presentation, "standard_relations",
                        lambda ring: standard_relations(ring)[:count])
    monkeypatch.setattr(presentation, "expected_dimension", expected)
    with pytest.raises(DimensionMismatch) as info:
        build_graded_basis()
    assert str(info.value) == (f"degree {first}: quotient dimension "
                               f"{len(want[first][0])}, expected "
                               f"{expected(first)}")
