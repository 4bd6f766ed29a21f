"""The Schubert-basis ring: table data, products, pairing, invariant
extraction, and the built-in consistency suite."""
import json
import os
import random
import shutil
import tracemalloc
from fractions import Fraction
from itertools import product

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
    want = SchubertElement({"s4": QPolynomial({0: 2}),
                            "s4p": QPolynomial({0: 2})})
    assert got == want


def test_classical_product_of_top_class_vanishes(table):
    assert classical_product(table, _basis("s8"), _basis("s1")).is_zero()


def test_hyperplane_squared(table):
    got = classical_product(table, _basis("s1"), _basis("s1"))
    want = SchubertElement({"s2": QPolynomial({0: 1}),
                            "s2p": QPolynomial({0: 1})})
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
    assert entry.coeff("s7").coeffs == {0: 3}
    broken_entry = entry + SchubertElement({"s7": QPolynomial({0: -2})})
    broken = table.with_entry("s5p", "s2", broken_entry)
    report = verify_table(broken)
    failed = {c.check_id for c in report.failures()}
    assert "associativity" in failed


def test_negative_coefficient_fault_is_named(table):
    entry = table.basis_product("s2", "s2")
    bad = entry + SchubertElement({"s4": QPolynomial({0: -5})})
    broken = table.with_entry("s2", "s2", bad)
    report = verify_table(broken)
    failed = {c.check_id for c in report.failures()}
    assert "positivity" in failed


def test_bilinearity_with_polynomial_coefficients(table):
    half_q = QPolynomial.monomial(1, Fraction(1, 2))
    x = SchubertElement({"s1": QPolynomial({0: 2}), "s2": half_q})
    y = _basis("s1")
    lhs = quantum_product(table, x, y)
    s2y = quantum_product(table, _basis("s2"), y)
    rhs = (quantum_product(table, _basis("s1"), y).scale(2)
           + SchubertElement.from_terms({(k, e + 1): c * Fraction(1, 2)
                                         for (k, e), c in s2y.terms().items()}))
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


def _quantum_term_in_low_row(raw):
    # s1 * s2p sits below the first quantum term of the hyperplane rows
    _record(raw, "s1", "s2p")["terms"].append({"label": "s3", "q": 1,
                                               "coeff": 1})


def test_a_quantum_term_in_a_low_hyperplane_row_is_named():
    raw = _shipped_raw()
    _quantum_term_in_low_row(raw)
    report = verify_table(MultiplicationTable.from_dict(raw))
    (check,) = [c for c in report.failures() if c.check_id == "chevalley_rows"]
    assert check.detail == \
        "hyperplane row mismatches: [('s2p', 'unexpected quantum term')]"


def test_cg_data_dir_sets_the_default_table(tmp_path, capsys, monkeypatch):
    # a copy of the data directory whose table has the fault above
    data = tmp_path / "data"
    shutil.copytree(default_data_dir(), data)
    raw = _shipped_raw()
    _quantum_term_in_low_row(raw)
    (data / "cg_table.json").write_text(json.dumps(raw))
    monkeypatch.setenv("CG_DATA_DIR", str(data))
    assert default_data_dir() == str(data)
    code = main(["verify", "--suite", "table"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[fail] table:chevalley_rows -- hyperplane row mismatches: " \
        "[('s2p', 'unexpected quantum term')]" in out.splitlines()


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


_TERM = "term of ('s0', 's3') needs a known 'label', an integer 'q' >= 0 " \
    "and a 'coeff': "
_COEFF = "bad coefficient in ('s0', 's3'): "


# each message is the CLI's one exit-2 line for the file, so it is pinned
@pytest.mark.parametrize("path, value, message", [
    (("products",), 5, "'products' must be a list of objects"),
    (("labels",), "nope", "'labels' must be a list of objects"),
    (("products", 4), ["s0", "s3"], "'products' must be a list of objects"),
    (("products", 4, "terms"), 5,
     "terms of ('s0', 's3') must be a list of objects"),
    (("products", 4, "terms", 0), "s3",
     "terms of ('s0', 's3') must be a list of objects"),
    (("products", 4, "terms", 0, "label"), _DELETE,
     _TERM + "{'q': 0, 'coeff': 1}"),
    (("products", 4, "terms", 0, "q"), _DELETE,
     _TERM + "{'label': 's3', 'coeff': 1}"),
    (("products", 4, "terms", 0, "coeff"), _DELETE,
     _TERM + "{'label': 's3', 'q': 0}"),
    (("products", 4, "terms", 0, "q"), 1.5,
     _TERM + "{'label': 's3', 'q': 1.5, 'coeff': 1}"),
    (("products", 4, "terms", 0, "q"), -1,
     _TERM + "{'label': 's3', 'q': -1, 'coeff': 1}"),
    (("products", 4, "terms", 0, "coeff"), "one",
     _COEFF + "{'label': 's3', 'q': 0, 'coeff': 'one'}"),
    (("products", 4, "terms", 0, "coeff"), "1/0",
     _COEFF + "{'label': 's3', 'q': 0, 'coeff': '1/0'}"),
    (("products", 4, "terms", 0, "coeff"), None,
     _COEFF + "{'label': 's3', 'q': 0, 'coeff': None}"),
    # a degree must be an integer, as a q-exponent must
    (("labels", 1, "degree"), True, "degree mismatch for s1"),
    (("labels", 1, "degree"), 1.0, "degree mismatch for s1"),
    (("products", 4, "a"), "s9", "unknown labels in product record s9,s3"),
], ids=["products-int", "labels-str", "record-list", "terms-int",
        "term-str", "no-label", "no-q", "no-coeff", "q-float", "q-negative",
        "coeff-word", "coeff-div-zero", "coeff-null", "degree-bool",
        "degree-float", "record-unknown-label"])
def test_schema_errors_raise_table_format_error(path, value, message):
    raw = _shipped_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(TableFormatError) as exc:
        MultiplicationTable.from_dict(raw)
    assert str(exc.value) == message


def test_record_list_errors_name_the_record_or_the_count():
    raw = _shipped_raw()
    records = raw["products"]
    # record 5 replaced by a copy of record 4, s0 * s3
    with pytest.raises(TableFormatError) as exc:
        MultiplicationTable.from_dict(
            {**raw, "products": records[:5] + [records[4]] + records[6:]})
    assert str(exc.value) == "duplicate product record ('s0', 's3')"
    with pytest.raises(TableFormatError) as exc:
        MultiplicationTable.from_dict({**raw, "products": records[1:]})
    assert str(exc.value) == "expected 120 product records, found 119"


def test_degree_that_is_not_an_int_exits_2(tmp_path, capsys):
    raw = _shipped_raw()
    raw["labels"][1]["degree"] = True
    path = tmp_path / "degree.json"
    path.write_text(json.dumps(raw))
    assert main(["--table-file", str(path), "verify", "--suite", "table"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


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
        # JSON true and 1.0 go through Fraction; a 30-digit int stays exact
        ("s3", "s3"): [{"label": "s6", "q": 0, "coeff": True},
                       {"label": "s6p", "q": 0, "coeff": 1.0},
                       {"label": "s2", "q": 1, "coeff": 10 ** 29 + 7}],
    }
    for (a, b), terms in hand_made.items():
        _record(raw, a, b)["terms"] = terms
    built = MultiplicationTable.from_dict(raw).constants
    assert _typed_items(built) == _typed_items(_normalised_through_elements(raw))
    # the loader and the elements share one normaliser, so each hand-made
    # record is also pinned as literal terms: keys in order, each value's
    # type that of its literal
    expected = {
        ("s2", "s2"): [("s4", 0, 4), ("s4p", 0, 2)],
        ("s1", "s3"): [("s4p", 0, 2), ("s0", 1, 2)],
        ("s2", "s2p"): [("s4p", 0, 2), ("s4pp", 0, Fraction(1, 3))],
        ("s1", "s8"): [],
        ("s7", "s7"): [("s6", 2, 1), ("s6", 0, 2), ("s2", 3, 1)],
        ("s3", "s3"): [("s6", 0, 1), ("s6p", 0, 1), ("s2", 1, 10 ** 29 + 7)],
    }
    for (a, b), want in expected.items():
        terms = built[LABEL_INDEX[a], LABEL_INDEX[b]]
        assert [(LABELS[k], e, type(c), c) for (k, e), c in terms.items()] \
            == [(label, e, type(c), c) for label, e, c in want], (a, b)
    assert list(built[LABELS.index("s1"), LABELS.index("s3")]) == \
        [(LABELS.index("s4p"), 0), (LABELS.index("s0"), 1)]
    assert built[LABELS.index("s1"), LABELS.index("s8")] == {}
    s3 = LABELS.index("s3")
    assert list(built[s3, s3].values()) == [1, 1, 10 ** 29 + 7]


def _reference_checks(table):
    """gw_symmetry and associativity as checked before the multiset walk:
    each ordered triple against its five permutations, and the 225
    products (bx)y of each middle class b held at once."""
    tensor, idx = table.tensor, range(len(LABELS))
    deg = [DEGREES[l] for l in LABELS]
    dual = [LABEL_INDEX[DUALS[l]] for l in LABELS]

    def gw(d, a, b, c):
        return tensor[a][b].get((dual[c], d), 0)

    bad_sym = []
    for a, b, c in product(idx, idx, idx):
        d, rest = divmod(deg[a] + deg[b] + deg[c] - 8, 4)
        if rest or d < 0:
            continue
        for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            if gw(d, *perm) != gw(d, a, b, c):
                bad_sym.append((d, LABELS[a], LABELS[b], LABELS[c],
                                tuple(LABELS[x] for x in perm)))
                break

    bad_assoc = []
    times = table.times
    for b in idx:
        bxy = [[times(tensor[b][x], y) for y in idx] for x in idx]
        bad_assoc += [(a, b, c) for a, c in product(idx, idx)
                      if bxy[a][c] != bxy[c][a]]
    bad_assoc = [tuple(LABELS[i] for i in t) for t in sorted(bad_assoc)]
    return {
        "gw_symmetry": (bad_sym, f"asymmetric invariants: {bad_sym[:3]}"),
        "associativity": (bad_assoc, f"{len(bad_assoc)} failing triples, "
                                     f"first: {bad_assoc[:3]}"),
    }


def _with_faults(raw, *faults):
    """A table from raw with each (a, b, edit) applied to a copy of the
    record of a * b."""
    records = list(raw["products"])
    for a, b, edit in faults:
        i = records.index(_record({"products": records}, a, b))
        records[i] = {**records[i], "terms": edit(list(records[i]["terms"]))}
    return MultiplicationTable.from_dict({**raw, "products": records})


def _shift(i, delta):
    def edit(terms):
        terms[i] = {**terms[i], "coeff": terms[i]["coeff"] + delta}
        return terms
    return edit


def _set(i, **fields):
    def edit(terms):
        terms[i] = {**terms[i], **fields}
        return terms
    return edit


def _append(term):
    return lambda terms: terms + [term]


def _terms(*terms):
    """Replace the record's terms by (label, coeff) pairs at q = 0."""
    return lambda _: [{"label": label, "q": 0, "coeff": coeff}
                      for label, coeff in terms]


def test_multiset_walk_reports_match_the_per_triple_loops():
    raw = _shipped_raw()
    s2s2 = _record(raw, "s2", "s2")["terms"]
    s4 = next(i for i, t in enumerate(s2s2) if t["label"] == "s4")
    tables = [MultiplicationTable.from_dict(raw)]
    unit = [(rec["a"], rec["b"], _shift(i, delta))
            for rec in raw["products"] for i in range(len(rec["terms"]))
            for delta in (1, -1)]
    assert len(unit) == 594
    tables += [_with_faults(raw, fault)
               for fault in random.Random(7).sample(unit, 30)]
    tables += [
        _with_faults(raw, ("s2", "s2", _set(s4, q=1))),          # off-grade
        _with_faults(raw, ("s2", "s2", _set(s4, coeff="1/2"))),  # Fraction
        # a new term at the empty, grading-compatible slot q * s0
        _with_faults(raw, ("s2", "s2", _append({"label": "s0", "q": 1,
                                                 "coeff": 1}))),
        _with_faults(raw, ("s2", "s2", _set(s4, coeff=-1))),     # negated
        _with_faults(raw, ("s5p", "s2", _shift(0, -2)),          # two faults
                     ("s3", "s4", _shift(0, 1))),
        _with_faults(raw, ("s2", "s2", _set(s4, coeff=10 ** 29 + 7))),
        # a Fraction and a negative coefficient, both on grade
        _with_faults(raw, ("s2", "s2", _set(s4, coeff="1/2")),
                     ("s3", "s4", _set(0, coeff=-3))),
        # (s1 s1) s2 - (s1 s2) s1 = 16 s4p - s4pp: nonzero, but 0 when
        # packed in fields of half the width the coefficients need (the
        # largest coefficient 5 and row sum 12 need 8 bits; in 4-bit
        # fields 16 s4p carries into s4pp)
        _with_faults(raw, ("s1", "s1", _terms(("s2", 4), ("s2p", 1))),
                     ("s1", "s2", _terms()),
                     ("s2", "s2", _terms(("s4p", 4))),
                     ("s2", "s2p", _terms(("s4pp", -1)))),
        _with_faults(raw, ("s2", "s2", _set(s4, q=10 ** 20))),   # off-grade
    ]
    failing = 0
    for table in tables:
        got = verify_table(table).to_dict()
        reference = _reference_checks(table)
        checks = []
        for check in got["checks"]:
            if check["id"] in reference:
                bad, detail = reference[check["id"]]
                check = {"id": check["id"],
                         "status": "fail" if bad else "pass",
                         "detail": detail if bad else ""}
            checks.append(check)
        ok = all(c["status"] == "pass" for c in checks)
        assert got == {"ok": ok, "checks": checks}
        failing += not ok
    assert failing == len(tables) - 1


def test_verify_table_peak_memory_is_no_higher_than_reference(table):
    def peak(check):
        tracemalloc.start()
        try:
            check(table)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(verify_table) <= peak(_reference_checks)


def _sparse(**entries):
    """The shipped labels and identity row, every other product zero
    unless entries gives it: "a_b" maps to (label, q, coeff) terms."""
    raw = _shipped_raw()
    products = []
    for rec in raw["products"]:
        terms = entries.get(f"{rec['a']}_{rec['b']}",
                            entries.get(f"{rec['b']}_{rec['a']}", ()))
        if "s0" not in (rec["a"], rec["b"]):
            rec = {**rec, "terms": [{"label": label, "q": q, "coeff": c}
                                    for label, q, c in terms]}
        products.append(rec)
    return MultiplicationTable.from_dict({**raw, "products": products})


def test_commuting_operators_match_the_per_triple_loops():
    raw = _shipped_raw()
    unit = [(rec["a"], rec["b"], _shift(i, delta))
            for rec in raw["products"] for i in range(len(rec["terms"]))
            for delta in (1, -1)]
    # s8 * s8 = q^4 s0, nothing else: (x s8) s8 - (s8 s8) x = -q^4 x, so
    # the pairs (x, s8) differ only in their last field, negatively
    last_field = _sparse(s8_s8=[("s0", 4, 1)])
    # only the pairs (s1, s8) and (s2, s8) fail, each at y = s8
    two_pairs = _sparse(s1_s8=[("s1", 2, 1)], s2_s8=[("s2", 2, 1)])
    # width is 3, and column s1 of [L_s1, L_s6] is (s1 s1) s6 - (s6 s1) s1
    # = -2 s8: s8 has the top slot of its degree class, so its field is
    # -2 * 2^(4 * 3), which in slots one bit narrower reads as a positive
    # digit and carries into the zero column s2
    narrow = _sparse(s1_s1=[("s2", 0, 1)], s2_s6=[("s8", 0, -1)],
                     s1_s6=[("s7", 0, 1)], s1_s7=[("s8", 0, 1)])
    # as narrow, and column s2 is (s1 s2) s6 - (s6 s2) s1 = q^2 s1, 1 in
    # the bottom slot: one bit narrower, the carry from column s1 would
    # cancel it and (s1, s2, s6) would pass
    narrow_miss = _sparse(s1_s1=[("s2", 0, 1)], s2_s6=[("s8", 0, -1)],
                          s1_s6=[("s7", 0, 1)], s1_s7=[("s8", 0, 1)],
                          s1_s2=[("s3", 0, 1)], s3_s6=[("s1", 2, 1)])
    tables = [last_field, two_pairs, narrow, narrow_miss]
    tables += [_with_faults(raw, fault)
               for fault in random.Random(11).sample(unit, 60)]
    for table in tables:
        got = {c["id"]: c for c in verify_table(table).to_dict()["checks"]}
        for check_id, (bad, detail) in _reference_checks(table).items():
            assert got[check_id] == {"id": check_id,
                                     "status": "fail" if bad else "pass",
                                     "detail": detail if bad else ""}
    failing = {name: _reference_checks(table)["associativity"][0]
               for name, table in (("last_field", last_field),
                                   ("two_pairs", two_pairs),
                                   ("narrow", narrow))}
    assert len(failing["last_field"]) == 26
    assert {y for _, y, _ in failing["last_field"]} == {"s8"}
    assert failing["two_pairs"] == [("s1", "s8", "s8"), ("s2", "s8", "s8"),
                                    ("s8", "s8", "s1"), ("s8", "s8", "s2")]
    assert ("s1", "s1", "s6") in failing["narrow"]
    assert ("s1", "s2", "s6") not in failing["narrow"]
    assert {("s1", "s1", "s6"), ("s1", "s2", "s6")} <= \
        set(_reference_checks(narrow_miss)["associativity"][0])
