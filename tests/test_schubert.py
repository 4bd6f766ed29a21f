"""The Schubert-basis ring: table data, products, pairing, invariant
extraction, and the built-in consistency suite."""
import json
import os
import random
from fractions import Fraction

import pytest

from cgquantum.exactmath import QPolynomial, rat
from cgquantum.schubert import (DEGREES, DUALS, LABEL_INDEX, LABELS,
                                SchubertElement,
                                TableFormatError, classical_product,
                                gw_invariant, load_default_table,
                                poincare_pairing, quantum_product,
                                verify_table)
from cgquantum.cli import main
from cgquantum.schubert import MultiplicationTable, default_data_dir


@pytest.fixture(scope="module")
def table():
    return load_default_table()


def _basis(label):
    return SchubertElement.basis(label)


def test_labels_and_degree_histogram():
    assert len(LABELS) == 15
    histogram = [0] * 9
    for label in LABELS:
        histogram[DEGREES[label]] += 1
    assert histogram == [1, 1, 2, 2, 3, 2, 2, 1, 1]


def test_duality_is_degree_complementary_involution():
    for label, dual in DUALS.items():
        assert DUALS[dual] == label
        assert DEGREES[label] + DEGREES[dual] == 8


def test_product_s2_squared(table):
    got = quantum_product(table, _basis("s2"), _basis("s2"))
    assert str(got) == "s4 + 2*s4p + 2*s4pp"


def test_identity_acts_trivially(table):
    for label in LABELS:
        assert quantum_product(table, _basis("s0"), _basis(label)) == _basis(label)


def test_top_class_squared_is_purely_quantum(table):
    got = quantum_product(table, _basis("s8"), _basis("s8"))
    want = SchubertElement({
        "s4p": QPolynomial.monomial(3),
        "s4pp": QPolynomial.monomial(3),
        "s0": QPolynomial.monomial(4),
    })
    assert got == want


def test_classical_product_drops_q_terms(table):
    got = classical_product(table, _basis("s3"), _basis("s1"))
    want = SchubertElement({"s4": QPolynomial.constant(2),
                            "s4p": QPolynomial.constant(2)})
    assert got == want


def test_classical_product_of_top_class_vanishes(table):
    assert classical_product(table, _basis("s8"), _basis("s1")).is_zero()


def test_hyperplane_squared(table):
    got = classical_product(table, _basis("s1"), _basis("s1"))
    want = SchubertElement({"s2": QPolynomial.constant(1),
                            "s2p": QPolynomial.constant(1)})
    assert got == want


def test_pairing_values(table):
    assert poincare_pairing(table, _basis("s2"), _basis("s6")) == 1
    assert poincare_pairing(table, _basis("s2p"), _basis("s6")) == 0
    assert poincare_pairing(table, _basis("s4pp"), _basis("s4pp")) == 1


def test_pairing_matches_duality_involution(table):
    for a in LABELS:
        for b in LABELS:
            if DEGREES[a] + DEGREES[b] != 8:
                continue
            want = 1 if DUALS[a] == b else 0
            assert poincare_pairing(table, _basis(a), _basis(b)) == want


def test_gw_examples(table):
    assert gw_invariant(table, 1, "s3", "s1", "s8") == 2
    assert gw_invariant(table, 3, "s7", "s8", "s5") == 1
    assert gw_invariant(table, 0, "s4", "s4", "s0") == 1
    # the degree-5 hyperplane row carries its q-term on the primed
    # degree-2 class, so extraction against s6p picks it up
    assert gw_invariant(table, 1, "s5", "s1", "s6p") == 1
    assert gw_invariant(table, 1, "s5", "s1", "s6") == 0


def test_gw_degree_mismatch_returns_zero(table):
    assert gw_invariant(table, 2, "s1", "s1", "s1") == 0
    assert gw_invariant(table, 0, "s8", "s8", "s8") == 0


def test_gw_symmetric_in_all_arguments(table):
    triples = [("s2", "s3", "s3"), ("s4", "s5", "s3"), ("s7", "s8", "s5")]
    for d in range(5):
        for a, b, c in triples:
            vals = {gw_invariant(table, d, x, y, z)
                    for x, y, z in [(a, b, c), (a, c, b), (b, a, c),
                                    (b, c, a), (c, a, b), (c, b, a)]}
            assert len(vals) == 1


def test_shipped_table_passes_all_checks(table):
    report = verify_table(table)
    assert report.ok, [c.check_id for c in report.failures()]


def test_missing_coefficient_fault_breaks_associativity(table):
    # drop the coefficient of s7 in the degree-7 entry from 3 to 1
    entry = table.basis_product("s5p", "s2")
    assert entry.coeff("s7") == QPolynomial.constant(3)
    broken_entry = entry + SchubertElement({"s7": QPolynomial.constant(-2)})
    broken = table.with_entry("s5p", "s2", broken_entry)
    report = verify_table(broken)
    failed = {c.check_id for c in report.failures()}
    assert "associativity" in failed


def test_negative_coefficient_fault_is_named(table):
    entry = table.basis_product("s2", "s2")
    bad = entry + SchubertElement({"s4": QPolynomial.constant(-5)})
    broken = table.with_entry("s2", "s2", bad)
    report = verify_table(broken)
    failed = {c.check_id for c in report.failures()}
    assert "positivity" in failed


def test_bilinearity_with_polynomial_coefficients(table):
    half_q = QPolynomial.monomial(1, Fraction(1, 2))
    x = SchubertElement({"s1": QPolynomial.constant(2), "s2": half_q})
    y = _basis("s1")
    lhs = quantum_product(table, x, y)
    s2y = quantum_product(table, _basis("s2"), y)
    rhs = (quantum_product(table, _basis("s1"), y).scale(2)
           + SchubertElement({l: p * half_q for l, p in s2y.coeffs.items()}))
    assert lhs == rhs


def test_times_matches_quantum_product(table):
    i = LABEL_INDEX
    # s6 * s1 and s6p * s1 share the term s7, which cancels and drops out
    got = table.times({(i["s6"], 0): 1, (i["s6p"], 0): -1}, i["s1"])
    assert got == {(i["s3p"], 1): 1, (i["s3"], 1): -1}
    rng = random.Random(13)
    for _ in range(50):
        terms = {(rng.randrange(15), rng.randrange(3)):
                 rng.choice((-2, -1, 1, 3)) for _ in range(4)}
        c = rng.randrange(15)
        assert SchubertElement.from_terms(table.times(terms, c)) == \
            quantum_product(table, SchubertElement.from_terms(terms),
                            _basis(LABELS[c]))


def test_element_string_order(table):
    got = quantum_product(table, _basis("s7"), _basis("s7"))
    assert str(got) == "q^2*s6 + q^2*s6p + q^3*s2 + q^3*s2p"


def test_malformed_table_rejected(tmp_path):
    from cgquantum.schubert import MultiplicationTable
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [], "products": []}')
    with pytest.raises(TableFormatError):
        MultiplicationTable.load(str(bad))



def _shipped_raw():
    with open(os.path.join(default_data_dir(), "cg_table.json")) as fh:
        return json.load(fh)


def _record(raw, a, b):
    return next(rec for rec in raw["products"]
                if (rec["a"], rec["b"]) in ((a, b), (b, a)))


@pytest.mark.parametrize("check, a, b, label, q", [
    ("identity", "s0", "s3", "s3p", 0),       # s0 * s3 gains s3p
    ("grading", "s2", "s2", "s1", 0),         # degree-1 term in degree 4
    ("pairing", "s2", "s6", "s8", 0),         # s2 pairs to 2 with s6
    ("gw_symmetry", "s2", "s2", "s4", 0),     # I_0(s2, s2, s4) becomes 2
    ("chevalley_rows", "s1", "s3", "s0", 1),  # extra q term in the s3 row
])
def test_each_table_check_catches_its_fault(check, a, b, label, q):
    raw = _shipped_raw()
    _record(raw, a, b)["terms"].append({"label": label, "q": q, "coeff": 1})
    report = verify_table(MultiplicationTable.from_dict(raw))
    assert check in {c.check_id for c in report.failures()}


def test_off_grade_term_is_a_verification_failure(tmp_path, capsys):
    raw = _shipped_raw()
    _record(raw, "s2", "s2")["terms"].append({"label": "s1", "q": 0,
                                              "coeff": 1})
    path = tmp_path / "offgrade.json"
    path.write_text(json.dumps(raw))
    code = main(["--table-file", str(path), "verify", "--suite", "table"])
    assert code == 1
    assert "[fail] table:grading" in capsys.readouterr().out


def test_non_integral_coefficient_is_named_by_positivity():
    raw = _shipped_raw()
    term = next(t for t in _record(raw, "s2", "s2")["terms"]
                if t["label"] == "s4")
    term["coeff"] = "1/2"
    report = verify_table(MultiplicationTable.from_dict(raw))
    positivity = next(c for c in report.failures()
                      if c.check_id == "positivity")
    assert "'1/2'" in positivity.detail


_DELETE = object()


@pytest.mark.parametrize("path, value", [
    (("products",), 5),
    (("labels",), "nope"),
    (("products", 4), ["s0", "s3"]),
    (("products", 4, "terms"), 5),
    (("products", 4, "terms", 0), "s3"),
    (("products", 4, "terms", 0, "label"), _DELETE),
    (("products", 4, "terms", 0, "q"), _DELETE),
    (("products", 4, "terms", 0, "coeff"), _DELETE),
    (("products", 4, "terms", 0, "q"), 1.5),
    (("products", 4, "terms", 0, "q"), -1),
    (("products", 4, "terms", 0, "coeff"), "one"),
    (("products", 4, "terms", 0, "coeff"), "1/0"),
    (("products", 4, "terms", 0, "coeff"), None),
], ids=["products-int", "labels-str", "record-list", "terms-int",
        "term-str", "no-label", "no-q", "no-coeff", "q-float", "q-negative",
        "coeff-word", "coeff-div-zero", "coeff-null"])
def test_schema_errors_raise_table_format_error(path, value):
    raw = _shipped_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(TableFormatError):
        MultiplicationTable.from_dict(raw)


def _normalised_through_elements(raw):
    """The table constants as built by summing each record's terms and
    normalising them through a SchubertElement."""
    out = {}
    for rec in raw["products"]:
        a, b = LABELS.index(rec["a"]), LABELS.index(rec["b"])
        acc = {}
        for term in rec["terms"]:
            key = (LABELS.index(term["label"]), term["q"])
            acc[key] = acc.get(key, 0) + Fraction(term["coeff"])
        out[min(a, b), max(a, b)] = SchubertElement.from_terms(acc).terms()
    return out


def _typed_items(constants):
    return [(pair, [(key, type(c), c) for key, c in terms.items()])
            for pair, terms in constants.items()]


def test_direct_table_build_matches_element_normalisation():
    raw = _shipped_raw()
    assert _typed_items(MultiplicationTable.from_dict(raw).constants) == \
        _typed_items(_normalised_through_elements(raw))
    hand_made = {
        # a repeated term adds up
        ("s2", "s2"): [{"label": "s4", "q": 0, "coeff": 1},
                       {"label": "s4p", "q": 0, "coeff": 2},
                       {"label": "s4", "q": 0, "coeff": 3}],
        # the first class cancels, so the second one now leads
        ("s1", "s3"): [{"label": "s4", "q": 0, "coeff": 2},
                       {"label": "s4p", "q": 0, "coeff": 2},
                       {"label": "s4", "q": 0, "coeff": -2},
                       {"label": "s0", "q": 1, "coeff": 2},
                       {"label": "s4", "q": 0, "coeff": 0}],
        # Fractions: one sums to an int, one stays a Fraction, one cancels
        ("s2", "s2p"): [{"label": "s4p", "q": 0, "coeff": "3/2"},
                        {"label": "s4pp", "q": 0, "coeff": "1/3"},
                        {"label": "s4p", "q": 0, "coeff": "1/2"},
                        {"label": "s4", "q": 0, "coeff": "-1/4"},
                        {"label": "s4", "q": 0, "coeff": "1/4"}],
        # every term cancels: an empty product
        ("s1", "s8"): [{"label": "s1", "q": 1, "coeff": 1},
                       {"label": "s1", "q": 1, "coeff": -1}],
        # two q-powers of one class are grouped behind its first term
        ("s7", "s7"): [{"label": "s6", "q": 2, "coeff": 1},
                       {"label": "s2", "q": 3, "coeff": 1},
                       {"label": "s6", "q": 0, "coeff": "2/1"}],
    }
    for (a, b), terms in hand_made.items():
        _record(raw, a, b)["terms"] = terms
    built = MultiplicationTable.from_dict(raw).constants
    assert _typed_items(built) == _typed_items(_normalised_through_elements(raw))
    assert list(built[LABELS.index("s1"), LABELS.index("s3")]) == \
        [(LABELS.index("s4p"), 0), (LABELS.index("s0"), 1)]
    assert built[LABELS.index("s1"), LABELS.index("s8")] == {}
